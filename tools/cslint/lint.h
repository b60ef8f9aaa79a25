#pragma once

#include <filesystem>
#include <string>
#include <vector>

/// cs-lint: CloudScope's in-repo invariant linter.
///
/// The library's correctness contracts — byte-identical output at any
/// CS_THREADS, fault decisions that are pure functions of (seed, kind,
/// key), one home for CS_* env parsing, all library output through
/// obs::log — are conventions the compiler cannot check. cs-lint checks
/// them mechanically with a comment/string/raw-string-aware token
/// scanner and a registry of project-invariant checks:
///
///   D1  determinism: rand/srand, std::random_device, time()/clock(),
///       gettimeofday, and the std::chrono wall/steady clocks are banned
///       in src/ outside the allowlist (src/obs/ timing, src/util/rng
///       seeding).
///   E1  env hygiene: getenv/setenv/putenv/unsetenv only in
///       src/util/env.cpp; everything else goes through util::env.
///   L1  logging: std::cout/cerr/clog, printf/puts, and
///       fprintf/fputs/fwrite aimed at stdout/stderr are banned in
///       library code under src/ (obs::log is the one sink); fine in
///       examples/, bench/, tests/.
///   C1  shared state: mutable namespace-scope (or class-static)
///       non-const, non-atomic variables in src/ are flagged unless
///       annotated — they are cross-thread determinism hazards.
///   G1  layering: the include graph must respect the module DAG
///       (util < obs < exec < fault < snap < the protocol band < the
///       analysis band < netio < core); back-edges, same-rank module
///       cycles, and file-level include cycles all fail.
///   K1  knob registry: every CS_* knob the code references must be
///       registered in src/util/knobs.def, every registered knob must
///       still be referenced (by name or Knob enum id) and documented
///       in README.md with the registry's kind and default in its
///       knob-table row, and README/DESIGN must not mention unregistered
///       knobs. #define'd CS_* macros and "CS_FOO_…" prefix mentions
///       are exempt. (Subsumes the old V1 doc-drift check.)
///   B1  wire-path waits: no sleep-family calls anywhere in src/netio/
///       (a server worker and a client caller each wait in ppoll on
///       their own socket, which is not in the family).
///   S1  header hygiene: #pragma once present, no `using namespace`
///       in headers, and no #if/#ifdef/#ifndef/#elif on NDEBUG in src/
///       headers (a consumer built with another NDEBUG setting than the
///       archives would see another class layout).
///   A1  suppression hygiene: inline allows must name known checks,
///       carry a non-empty reason, and actually suppress something.
///
/// Inline suppression: a comment of the form
///     NOLINT-style marker: "cslint:" "allow(D1): reason text"
/// on the finding's line or the line above suppresses matching checks
/// on that line. Suppressed findings are still counted and reported.
namespace cs::lint {

struct Source {
  std::string path;  // repo-relative, '/'-separated
  std::string text;
};

struct Finding {
  std::string file{};
  int line = 0;
  std::string check{};  // "B1", "C1", "D1", "E1", "G1", "K1", "L1", "S1", "A1"
  std::string message{};
  bool suppressed = false;
  std::string reason{};  // suppression reason when suppressed
};

/// Run every check over the given sources. Sources whose path ends in
/// .h/.hpp/.cc/.cpp get the token checks and the G1 include graph;
/// README.md, DESIGN.md, src/util/knobs.def, and build/CI metadata
/// (CMakeLists.txt, *.yml, *.cmake) participate only in the K1 CS_*
/// cross-reference. K1 is skipped entirely when the corpus has no
/// knobs.def (partial fixture corpora). Findings come back sorted by
/// (file, line, check).
std::vector<Finding> lint(const std::vector<Source>& sources);

/// Load lintable sources from disk: each entry of `paths` (relative to
/// `root`) is a file or a directory walked recursively for C++ sources;
/// README.md, DESIGN.md, src/util/knobs.def, the root CMakeLists.txt, and
/// .github/workflows/* are added automatically for K1. Hidden directories
/// and build*/ trees are skipped. Returns false and sets `error` on I/O
/// failure.
bool collect_sources(const std::filesystem::path& root,
                     const std::vector<std::string>& paths,
                     std::vector<Source>* out, std::string* error);

std::size_t count_unsuppressed(const std::vector<Finding>& findings);

/// `file:line: [check] message` lines for unsuppressed findings plus a
/// one-line summary (suppressed findings are counted in the summary).
std::string render_text(const std::vector<Finding>& findings);

/// Machine-readable shape:
/// {"findings":[{file,line,check,message,suppressed,reason},...],
///  "total":N,"suppressed":M,"unsuppressed":K}
std::string render_json(const std::vector<Finding>& findings);

/// GitHub Actions workflow commands — one
/// `::error file=...,line=...,title=cslint CHECK::message` per
/// unsuppressed finding (so CI annotates the diff) plus the text summary
/// line. Values are %-escaped per the workflow-command rules.
std::string render_github(const std::vector<Finding>& findings);

}  // namespace cs::lint
