#include "cslint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace cs::lint {
namespace {

// ---------------------------------------------------------------------------
// Scanner: blank out comments, string literals, char literals, and raw
// strings so the token checks only ever see code, while collecting the
// comment text per line (suppressions live there). The blanked copy keeps
// every newline, so offsets map 1:1 onto line numbers.
// ---------------------------------------------------------------------------

struct Stripped {
  std::string code;                    // raw with non-code blanked to spaces
  std::map<int, std::string> comments; // 1-based line -> comment text
};

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// The identifier run immediately before a '"' decides raw-string-ness:
// exactly R, u8R, uR, UR, or LR.
bool is_raw_prefix(std::string_view text, std::size_t quote) {
  std::size_t begin = quote;
  while (begin > 0 && is_word(text[begin - 1])) --begin;
  const std::string_view run = text.substr(begin, quote - begin);
  return run == "R" || run == "u8R" || run == "uR" || run == "UR" ||
         run == "LR";
}

Stripped strip(std::string_view raw) {
  Stripped out;
  out.code.assign(raw.size(), ' ');
  int line = 1;
  std::size_t i = 0;
  auto note_comment = [&](char c) {
    if (c != '\n' && c != '\r') out.comments[line].push_back(c);
  };
  while (i < raw.size()) {
    const char c = raw[i];
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
      while (i < raw.size() && raw[i] != '\n') note_comment(raw[i++]);
    } else if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
      i += 2;
      while (i + 1 < raw.size() && !(raw[i] == '*' && raw[i + 1] == '/')) {
        if (raw[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        } else {
          note_comment(raw[i]);
        }
        ++i;
      }
      i = std::min(i + 2, raw.size());
    } else if (c == '"' && is_raw_prefix(raw, i)) {
      std::size_t d = i + 1;
      while (d < raw.size() && raw[d] != '(') ++d;
      const std::string closer =
          ")" + std::string(raw.substr(i + 1, d - i - 1)) + "\"";
      std::size_t end = raw.find(closer, d);
      end = (end == std::string_view::npos) ? raw.size()
                                            : end + closer.size();
      for (; i < end; ++i)
        if (raw[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        }
    } else if (c == '"' || (c == '\'' && (i == 0 || !is_word(raw[i - 1])))) {
      const char close = c;
      ++i;
      while (i < raw.size() && raw[i] != close && raw[i] != '\n') {
        if (raw[i] == '\\') ++i;
        ++i;
      }
      if (i < raw.size() && raw[i] == close) ++i;
    } else {
      out.code[i] = c;
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over the blanked code. Identifiers/numbers become word tokens;
// "::" and "->" stay fused (the checks care about member access and
// qualification); everything else is single-char punctuation. Tokens on
// preprocessor lines (including backslash continuations) are marked.
// ---------------------------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;
  bool preproc = false;
};

std::vector<Tok> tokenize(std::string_view code) {
  std::vector<Tok> toks;
  int line = 1;
  bool preproc = false;
  bool line_has_content = false;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      const bool continued = preproc && !toks.empty() &&
                             toks.back().text == "\\" &&
                             toks.back().line == line;
      if (!continued) preproc = false;
      line_has_content = false;
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#' && !line_has_content) preproc = true;
    line_has_content = true;
    if (is_word(c)) {
      std::size_t j = i;
      while (j < code.size() && is_word(code[j])) ++j;
      toks.push_back({std::string(code.substr(i, j - i)), line, preproc});
      i = j;
    } else if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      toks.push_back({"::", line, preproc});
      i += 2;
    } else if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
      toks.push_back({"->", line, preproc});
      i += 2;
    } else {
      toks.push_back({std::string(1, c), line, preproc});
      ++i;
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool is_cpp_source(std::string_view path) {
  return ends_with(path, ".h") || ends_with(path, ".hpp") ||
         ends_with(path, ".cc") || ends_with(path, ".cpp");
}

bool is_header(std::string_view path) {
  return ends_with(path, ".h") || ends_with(path, ".hpp");
}

bool in_src(std::string_view path) { return starts_with(path, "src/"); }

// D1 allowlist: obs/ measures wall time by design, and util/rng is where
// seeds are minted. Everything else, src/netio/ included, reads time
// through obs::steady_now_us() or annotates.
bool d1_exempt(std::string_view path) {
  return starts_with(path, "src/obs/") || starts_with(path, "src/util/rng");
}

// K1 code scope: everything whose CS_* mentions count as *references* to
// a knob. tests/ are excluded so fixture corpora can mention fake knobs;
// the registry and the docs are the other side of the cross-check, not
// references.
bool k1_code_scope(std::string_view path) {
  return !starts_with(path, "tests/") && !ends_with(path, "README.md") &&
         !ends_with(path, "DESIGN.md") && !ends_with(path, "knobs.def");
}

// ---------------------------------------------------------------------------
// Suppressions: a comment containing the marker (written here split so
// this very file cannot suppress anything by accident)
//     "cslint:" + "allow(D1,C1): reason"
// suppresses the named checks on its own line and the line below. The
// reason is mandatory; unknown check ids and allows that suppress nothing
// are A1 findings themselves.
// ---------------------------------------------------------------------------

const std::set<std::string, std::less<>> kKnownChecks = {
    "B1", "C1", "D1", "E1", "G1", "K1", "L1", "S1"};

struct Allow {
  int line = 0;
  std::vector<std::string> checks;
  std::string reason;
  bool used = false;
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<Allow> parse_allows(const std::map<int, std::string>& comments) {
  const std::string marker = std::string("cslint:") + "allow(";
  std::vector<Allow> allows;
  for (const auto& [line, text] : comments) {
    std::size_t pos = 0;
    while ((pos = text.find(marker, pos)) != std::string::npos) {
      const std::size_t open = pos + marker.size();
      const std::size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      Allow allow;
      allow.line = line;
      std::stringstream list{text.substr(open, close - open)};
      std::string id;
      while (std::getline(list, id, ',')) {
        id = trim(id);
        if (!id.empty()) allow.checks.push_back(id);
      }
      std::size_t after = close + 1;
      if (after < text.size() && text[after] == ':')
        allow.reason = trim(text.substr(after + 1));
      allows.push_back(std::move(allow));
      pos = close;
    }
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Per-file token checks
// ---------------------------------------------------------------------------

struct FileReport {
  std::vector<Finding> findings;  // pre-suppression
  std::vector<Allow> allows;
};

void add(FileReport& report, const std::string& file, int line,
         const char* check, std::string message) {
  Finding finding;
  finding.file = file;
  finding.line = line;
  finding.check = check;
  finding.message = std::move(message);
  report.findings.push_back(std::move(finding));
}

const std::set<std::string, std::less<>> kD1Plain = {
    "srand",        "random_device",         "gettimeofday", "random_shuffle",
    "system_clock", "high_resolution_clock", "steady_clock"};
const std::set<std::string, std::less<>> kD1Call = {"rand", "time", "clock"};

const std::set<std::string, std::less<>> kE1 = {
    "getenv", "secure_getenv", "setenv", "putenv", "unsetenv"};

const std::set<std::string, std::less<>> kL1Stream = {"cout", "cerr", "clog"};
const std::set<std::string, std::less<>> kL1Call = {"printf", "puts",
                                                    "putchar", "vprintf"};
const std::set<std::string, std::less<>> kL1FileCall = {"fprintf", "fputs",
                                                        "fwrite", "fputc"};

bool is_member_access(const std::vector<Tok>& toks, std::size_t i) {
  return i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

// `long time(int);` declares a member/function named time; `x = time(0)`
// calls the libc one. A preceding identifier (other than a keyword that
// can start an expression) means declaration, not call.
bool is_declaration_name(const std::vector<Tok>& toks, std::size_t i) {
  if (i == 0) return false;
  const std::string& prev = toks[i - 1].text;
  if (!is_word(prev[0])) return false;
  return prev != "return" && prev != "co_return" && prev != "co_yield" &&
         prev != "co_await" && prev != "throw";
}

bool next_is(const std::vector<Tok>& toks, std::size_t i,
             std::string_view text) {
  return i + 1 < toks.size() && toks[i + 1].text == text;
}

// Does the argument list opening at toks[open]=='(' mention stdout/stderr?
bool args_mention_tty(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")" && --depth == 0) break;
    if (toks[j].text == "stderr" || toks[j].text == "stdout") return true;
  }
  return false;
}

void check_tokens(const std::string& path, const std::vector<Tok>& toks,
                  FileReport& report) {
  const bool d1 = in_src(path) && !d1_exempt(path);
  const bool e1 = in_src(path) && path != "src/util/env.cpp";
  const bool l1 = in_src(path);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const int line = toks[i].line;
    if (d1 && !is_member_access(toks, i)) {
      if (kD1Plain.count(t)) {
        add(report, path, line, "D1",
            "nondeterminism source '" + t +
                "' banned in src/ (seed through util::Rng / "
                "exec::ShardedRng; wall-clock timing belongs in obs/)");
      } else if (kD1Call.count(t) && next_is(toks, i, "(") &&
                 !is_declaration_name(toks, i)) {
        add(report, path, line, "D1",
            "call to '" + t +
                "()' banned in src/: output must be a pure function of "
                "the seed, not of the clock or the C PRNG");
      }
    }
    if (e1 && kE1.count(t) && !is_member_access(toks, i)) {
      add(report, path, line, "E1",
          "'" + t +
              "' outside src/util/env.cpp: all CS_* environment access "
              "goes through util::env so parsing stays strict and uniform");
    }
    if (l1) {
      if (kL1Stream.count(t) && !is_member_access(toks, i)) {
        add(report, path, line, "L1",
            "'std::" + t +
                "' in library code: route output through obs::log "
                "(examples/, bench/, tests/ may print directly)");
      } else if (kL1Call.count(t) && next_is(toks, i, "(") &&
                 !is_member_access(toks, i)) {
        add(report, path, line, "L1",
            "'" + t + "' in library code: route output through obs::log");
      } else if (kL1FileCall.count(t) && next_is(toks, i, "(") &&
                 !is_member_access(toks, i) && args_mention_tty(toks, i + 1)) {
        add(report, path, line, "L1",
            "'" + t +
                "' aimed at stdout/stderr in library code: route output "
                "through obs::log");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C1: mutable namespace-scope (and class-static) state. A brace-kind
// stack tells namespace scope apart from type bodies and function
// bodies; declaration segments at namespace scope that survive the
// skip-list (functions, types, using/typedef/extern/template, anything
// const/constexpr/atomic) are shared mutable state.
// ---------------------------------------------------------------------------

enum class ScopeKind { kNamespace, kType, kBlock, kInit };

bool segment_has(const std::vector<Tok>& seg, std::string_view word) {
  for (const auto& t : seg)
    if (t.text == word) return true;
  return false;
}

ScopeKind classify_brace(const std::vector<Tok>& seg) {
  bool saw_parens = false;
  for (const auto& t : seg) {
    if (t.text == "namespace") return ScopeKind::kNamespace;
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum")
      return ScopeKind::kType;
    if (t.text == "=") return ScopeKind::kInit;
    if (t.text == "(") saw_parens = true;
  }
  // `int x{1};` — a brace right after a declarator, no parens, no '='.
  if (!saw_parens && !seg.empty() && is_word(seg.back().text[0]))
    return ScopeKind::kInit;
  return ScopeKind::kBlock;
}

const std::set<std::string, std::less<>> kC1SkipWords = {
    "using",    "typedef",  "extern",        "template", "friend",
    "operator", "concept",  "static_assert", "requires", "namespace",
    "class",    "struct",   "union",         "enum",     "const",
    "constexpr","constinit", "consteval",    "asm"};

// Types that are internally synchronized (or synchronization primitives
// themselves): fine to hold at namespace scope. Mutex/CondVar/LockGuard
// are the annotated util::sync wrappers — the project's required spelling
// for locks, so C1 must know them as well as the std primitives they wrap.
bool is_sync_type(std::string_view word) {
  return starts_with(word, "atomic") || word == "mutex" ||
         word == "shared_mutex" || word == "recursive_mutex" ||
         word == "timed_mutex" || word == "once_flag" ||
         word == "condition_variable" || word == "Mutex" ||
         word == "CondVar" || word == "LockGuard";
}

bool segment_is_exempt(const std::vector<Tok>& seg) {
  for (const auto& t : seg) {
    if (kC1SkipWords.count(t.text)) return true;
    if (is_sync_type(t.text)) return true;
    if (t.text == "(") return true;  // '(' before '=': function decl/def
    if (t.text == "=") break;
  }
  return false;
}

std::string declared_name(const std::vector<Tok>& seg) {
  std::string name;
  for (const auto& t : seg) {
    if (t.text == "=" || t.text == "[") break;
    if (is_word(t.text[0]) && !std::isdigit(static_cast<unsigned char>(t.text[0])))
      name = t.text;
  }
  return name;
}

void analyze_segment(const std::string& path, const std::vector<Tok>& seg,
                     bool type_scope, FileReport& report) {
  if (seg.empty() || segment_is_exempt(seg)) return;
  if (type_scope && !segment_has(seg, "static")) return;
  const std::string name = declared_name(seg);
  if (name.empty()) return;
  const char* where = type_scope ? "class-static" : "namespace-scope";
  add(report, path, seg.front().line, "C1",
      std::string("mutable ") + where + " state '" + name +
          "': shared mutable globals break cross-thread determinism "
          "(make it const/atomic, or annotate why it is safe)");
}

void check_shared_state(const std::string& path, const std::vector<Tok>& toks,
                        FileReport& report) {
  if (!in_src(path)) return;
  std::vector<ScopeKind> stack;
  std::vector<Tok> segment;
  auto at_namespace = [&] {
    return std::all_of(stack.begin(), stack.end(), [](ScopeKind k) {
      return k == ScopeKind::kNamespace;
    });
  };
  auto at_type = [&] {
    if (stack.empty() || stack.back() != ScopeKind::kType) return false;
    return std::all_of(stack.begin(), stack.end() - 1, [](ScopeKind k) {
      return k == ScopeKind::kNamespace || k == ScopeKind::kType;
    });
  };
  for (const auto& tok : toks) {
    if (tok.preproc) continue;
    const bool analysis_scope = at_namespace() || at_type();
    if (tok.text == "{") {
      const ScopeKind kind =
          analysis_scope ? classify_brace(segment) : ScopeKind::kBlock;
      stack.push_back(kind);
      if (kind != ScopeKind::kInit) segment.clear();
    } else if (tok.text == "}") {
      if (!stack.empty()) {
        const ScopeKind kind = stack.back();
        stack.pop_back();
        if (kind != ScopeKind::kInit) segment.clear();
      }
    } else if (tok.text == ";") {
      if (analysis_scope) analyze_segment(path, segment, at_type(), report);
      segment.clear();
    } else if (analysis_scope) {
      segment.push_back(tok);
    }
  }
}

// ---------------------------------------------------------------------------
// S1: header hygiene
// ---------------------------------------------------------------------------

void check_header(const std::string& path, const std::vector<Tok>& toks,
                  FileReport& report) {
  if (!is_header(path)) return;
  bool pragma_once = false;
  for (std::size_t i = 0; i + 2 < toks.size() && !pragma_once; ++i)
    pragma_once = toks[i].text == "#" && toks[i + 1].text == "pragma" &&
                  toks[i + 2].text == "once";
  if (!pragma_once)
    add(report, path, 1, "S1", "header is missing '#pragma once'");
  for (std::size_t i = 0; i + 1 < toks.size(); ++i)
    if (toks[i].text == "using" && toks[i + 1].text == "namespace")
      add(report, path, toks[i].line, "S1",
          "'using namespace' in a header leaks into every includer");
  // A src/ header that tests NDEBUG gives each NDEBUG setting its own
  // class layout or inline body, so a program built with another setting
  // than the cs_* archives it links breaks the one-definition rule.
  if (!in_src(path)) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "#" || !toks[i].preproc) continue;
    const std::string& directive = toks[i + 1].text;
    if (directive != "if" && directive != "ifdef" && directive != "ifndef" &&
        directive != "elif")
      continue;
    for (std::size_t j = i + 2;
         j < toks.size() && toks[j].preproc && toks[j].text != "#"; ++j) {
      if (toks[j].text == "NDEBUG") {
        add(report, path, toks[i].line, "S1",
            "NDEBUG conditional in a src/ header: builds with another "
            "NDEBUG setting see another layout; keep it in the .cpp");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// B1: nothing on the wire path sleeps. Sleep-family calls (sleep/usleep/
// nanosleep/sleep_for/sleep_until) are banned anywhere under src/netio/:
// every wait there is a server worker's or a client caller's ppoll on its
// own socket, which wakes for a datagram, a due held copy or stop().
// ---------------------------------------------------------------------------

const std::set<std::string, std::less<>> kB1Sleep = {
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until"};

void check_netio_sleeps(const std::string& path, const std::vector<Tok>& toks,
                        FileReport& report) {
  if (!starts_with(path, "src/netio/")) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (kB1Sleep.count(t) && next_is(toks, i, "(") &&
        !is_declaration_name(toks, i))
      add(report, path, toks[i].line, "B1",
          "'" + t +
          "()' in src/netio/: nothing on the wire path sleeps — every wait "
          "is a ppoll on the waiter's own socket");
  }
}

// ---------------------------------------------------------------------------
// K1: the CS_* knob registry (src/util/knobs.def) vs the tree. Every CS_*
// name the code references must be registered, every registered knob must
// still be referenced (by env-var name or by its Knob enum id) and must be
// documented in README.md, each README knob-table row must repeat its
// entry's kind and default, and the docs must not mention unregistered
// knobs. CS_* tokens that are #define'd anywhere in the corpus (annotation
// macros, the CS_KNOB X-macro itself) and prefix mentions ("CS_NETIO_…",
// trailing underscore) are exempt.
// ---------------------------------------------------------------------------

struct KnobSite {
  std::string file;
  int line = 0;
};

// Whole-word CS_[A-Z0-9_]+ occurrences in raw text (strings and comments
// included: knob names mostly live inside string literals).
void collect_knobs(const Source& source, std::map<std::string, KnobSite>* out) {
  const std::string& text = source.text;
  int line = 1;
  for (std::size_t i = 0; i + 3 < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      continue;
    }
    if (text.compare(i, 3, "CS_") != 0) continue;
    if (i > 0 && is_word(text[i - 1])) continue;
    std::size_t j = i + 3;
    while (j < text.size() && is_word(text[j])) ++j;
    const std::string word = text.substr(i, j - i);
    const bool shouty = std::all_of(word.begin() + 3, word.end(), [](char c) {
      return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
    });
    if (word.size() > 3 && shouty && !out->count(word))
      (*out)[word] = {source.path, line};
    i = j - 1;
  }
}

struct RegistryEntry {
  std::string id;        // Knob enum constant, e.g. kThreads
  std::string name;      // env-var name, e.g. CS_THREADS
  std::string kind;      // e.g. unsigned
  std::string fallback;  // the default, e.g. "hardware concurrency"
  int line = 0;
};

// Parses `CS_KNOB(id, "NAME", kind, "default", "doc")` entries, one per
// line, from the registry file's raw text. Comment lines never start with
// CS_KNOB, so no stripping is needed (and the names live inside string
// literals, which stripping would blank).
std::vector<RegistryEntry> parse_registry(const Source& registry,
                                          FileReport& report) {
  std::vector<RegistryEntry> entries;
  std::istringstream in{registry.text};
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string text = trim(raw);
    if (!starts_with(text, "CS_KNOB(")) continue;
    RegistryEntry entry;
    entry.line = line;
    const std::size_t comma = text.find(',');
    if (comma != std::string::npos)
      entry.id = trim(text.substr(8, comma - 8));
    const std::size_t open = text.find('"', comma);
    const std::size_t close =
        open == std::string::npos ? open : text.find('"', open + 1);
    if (close != std::string::npos) {
      entry.name = text.substr(open + 1, close - open - 1);
      // `, kind, "default", ...` follows the name.
      const std::size_t kind_end = text.find(',', close + 2);
      const std::size_t def_open = text.find('"', kind_end);
      const std::size_t def_close =
          def_open == std::string::npos ? def_open
                                        : text.find('"', def_open + 1);
      if (def_close != std::string::npos) {
        entry.kind = trim(text.substr(close + 2, kind_end - close - 2));
        entry.fallback = text.substr(def_open + 1, def_close - def_open - 1);
      }
    }
    if (entry.id.empty() || !starts_with(entry.name, "CS_")) {
      // "CS_" + "NAME" is split so this placeholder never registers as a
      // knob mention in cslint's own source.
      add(report, registry.path, line, "K1",
          std::string("malformed registry entry: want CS_KNOB(id, \"") +
              "CS_" + "NAME\", kind, \"default\", \"doc\")");
      continue;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// Whole-word occurrence of `word` anywhere in `text`.
bool contains_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_word(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// One row of README's knob table: | `knob` | kind | default | doc |.
struct KnobRow {
  std::string name;
  std::string kind;
  std::string fallback;
  int line = 0;
};

std::vector<KnobRow> parse_knob_rows(const Source& readme) {
  std::vector<KnobRow> rows;
  std::istringstream in{readme.text};
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    if (!starts_with(raw, "| `CS_")) continue;
    std::vector<std::string> cells;
    std::size_t start = 1;
    while (cells.size() < 3) {
      const std::size_t bar = raw.find('|', start);
      if (bar == std::string::npos) break;
      cells.push_back(trim(std::string_view{raw}.substr(start, bar - start)));
      start = bar + 1;
    }
    if (cells.size() < 3 || cells[0].size() < 2 || cells[0].back() != '`')
      continue;
    rows.push_back({cells[0].substr(1, cells[0].size() - 2), cells[1],
                    cells[2], line});
  }
  return rows;
}

void check_knob_registry(const std::vector<Source>& sources,
                         const std::set<std::string>& macro_defined,
                         std::map<std::string, FileReport>& reports) {
  const Source* registry = nullptr;
  const Source* readme = nullptr;
  std::map<std::string, KnobSite> referenced;  // code-scope CS_* mentions
  std::map<std::string, KnobSite> in_docs;     // README/DESIGN mentions
  std::set<std::string> in_readme;
  for (const auto& source : sources) {
    if (ends_with(source.path, "knobs.def")) {
      registry = &source;
    } else if (ends_with(source.path, "README.md")) {
      readme = &source;
      std::map<std::string, KnobSite> only;
      collect_knobs(source, &only);
      for (const auto& [knob, site] : only) {
        in_readme.insert(knob);
        in_docs.emplace(knob, site);
      }
    } else if (ends_with(source.path, "DESIGN.md")) {
      collect_knobs(source, &in_docs);
    } else if (k1_code_scope(source.path)) {
      collect_knobs(source, &referenced);
    }
  }
  if (registry == nullptr) return;  // partial corpus (tests): K1 is off
  std::vector<RegistryEntry> entries =
      parse_registry(*registry, reports[registry->path]);
  std::set<std::string> registered;
  for (const auto& entry : entries) registered.insert(entry.name);

  auto exempt = [&](const std::string& word) {
    return word.back() == '_' ||  // prefix mention: "the CS_NETIO_ family"
           macro_defined.count(word) != 0;
  };

  for (const auto& [knob, site] : referenced)
    if (!registered.count(knob) && !exempt(knob))
      add(reports[site.file], site.file, site.line, "K1",
          "'" + knob +
              "' is referenced here but not registered in "
              "src/util/knobs.def — every knob declares itself there");
  for (const auto& [knob, site] : in_docs)
    if (!registered.count(knob) && !exempt(knob))
      add(reports[site.file], site.file, site.line, "K1",
          "'" + knob +
              "' is documented here but not registered in "
              "src/util/knobs.def (stale docs, or an unregistered knob)");
  for (const auto& entry : entries) {
    bool alive = false;
    for (const auto& source : sources) {
      if (!k1_code_scope(source.path) || ends_with(source.path, "knobs.def"))
        continue;
      if (contains_word(source.text, entry.name) ||
          (is_cpp_source(source.path) &&
           contains_word(source.text, entry.id))) {
        alive = true;
        break;
      }
    }
    if (!alive)
      add(reports[registry->path], registry->path, entry.line, "K1",
          "dead knob '" + entry.name +
              "': registered but neither its name nor its enum id '" +
              entry.id + "' appears anywhere in the tree");
    if (readme != nullptr && !in_readme.count(entry.name))
      add(reports[registry->path], registry->path, entry.line, "K1",
          "'" + entry.name +
              "' is registered but not documented in README.md's knob "
              "table");
  }
  if (readme == nullptr) return;
  for (const auto& row : parse_knob_rows(*readme)) {
    const auto entry =
        std::find_if(entries.begin(), entries.end(),
                     [&](const RegistryEntry& e) { return e.name == row.name; });
    if (entry == entries.end()) continue;  // flagged above as unregistered
    if (row.kind != entry->kind || row.fallback != entry->fallback)
      add(reports[readme->path], readme->path, row.line, "K1",
          "README.md's row for '" + row.name + "' says kind '" + row.kind +
              "', default '" + row.fallback + "'; src/util/knobs.def says '" +
              entry->kind + "', '" + entry->fallback + "'");
  }
}

// ---------------------------------------------------------------------------
// G1: the include graph must respect the module layering DAG
//
//   util < obs < exec < fault < snap
//        < {dns, pcap, synth, cloud, net, internet, proto}
//        < {analysis, carto} < netio < core
//
// A file in src/<mod>/ may include project headers from its own module or
// any strictly lower rank; within a rank band, cross-module includes are
// fine as long as the band's module graph stays acyclic. File-level
// include cycles are flagged regardless of module.
// ---------------------------------------------------------------------------

int module_rank(std::string_view module) {
  if (module == "util") return 0;
  if (module == "obs") return 1;
  if (module == "exec") return 2;
  if (module == "fault") return 3;
  if (module == "snap") return 4;
  if (module == "dns" || module == "pcap" || module == "synth" ||
      module == "cloud" || module == "net" || module == "internet" ||
      module == "proto")
    return 5;
  if (module == "analysis" || module == "carto") return 6;
  if (module == "netio") return 7;
  if (module == "core") return 8;
  return -1;
}

// The first path component after src/, or "" when not under src/.
std::string module_of(std::string_view path) {
  if (!in_src(path)) return "";
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(rest.substr(0, slash));
}

struct IncludeEdge {
  std::string from_file;
  int line = 0;
  std::string target;  // the quoted include path, e.g. "util/sync.h"
};

// Quoted project includes per file (angle includes are system headers).
std::vector<IncludeEdge> collect_includes(const Source& source) {
  std::vector<IncludeEdge> edges;
  std::istringstream in{source.text};
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string text = trim(raw);
    if (!starts_with(text, "#")) continue;
    const std::string after = trim(text.substr(1));
    if (!starts_with(after, "include")) continue;
    const std::size_t open = after.find('"');
    const std::size_t close =
        open == std::string::npos ? open : after.find('"', open + 1);
    if (close == std::string::npos) continue;
    edges.push_back({source.path, line, after.substr(open + 1, close - open - 1)});
  }
  return edges;
}

// Tarjan strongly-connected components over a small string graph; returns
// a component id per node. Edges inside a component of size > 1 lie on a
// cycle.
struct SccResult {
  std::map<std::string, int> component;
  std::vector<std::vector<std::string>> members;
};

SccResult strongly_connected(
    const std::map<std::string, std::set<std::string>>& graph) {
  SccResult out;
  std::map<std::string, int> index, low;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  int next = 0;
  // Iterative Tarjan: (node, child-iterator position) frames.
  std::function<void(const std::string&)> visit = [&](const std::string& v) {
    index[v] = low[v] = next++;
    stack.push_back(v);
    on_stack.insert(v);
    const auto it = graph.find(v);
    if (it != graph.end()) {
      for (const auto& w : it->second) {
        if (!index.count(w)) {
          visit(w);
          low[v] = std::min(low[v], low[w]);
        } else if (on_stack.count(w)) {
          low[v] = std::min(low[v], index[w]);
        }
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::string> comp;
      for (;;) {
        const std::string w = stack.back();
        stack.pop_back();
        on_stack.erase(w);
        out.component[w] = static_cast<int>(out.members.size());
        comp.push_back(w);
        if (w == v) break;
      }
      std::sort(comp.begin(), comp.end());
      out.members.push_back(std::move(comp));
    }
  };
  for (const auto& [node, _] : graph)
    if (!index.count(node)) visit(node);
  return out;
}

void check_layering(const std::vector<Source>& sources,
                    std::map<std::string, FileReport>& reports) {
  std::set<std::string> corpus;  // file paths, for resolving includes
  for (const auto& source : sources)
    if (is_cpp_source(source.path)) corpus.insert(source.path);

  std::vector<IncludeEdge> edges;
  for (const auto& source : sources) {
    if (!is_cpp_source(source.path) || !in_src(source.path)) continue;
    const auto file_edges = collect_includes(source);
    edges.insert(edges.end(), file_edges.begin(), file_edges.end());
  }

  // Rank violations + the same-rank module graph.
  std::map<std::string, std::set<std::string>> band_graph;
  std::map<std::string, IncludeEdge> band_site;  // "from>to" -> first site
  for (const auto& edge : edges) {
    const std::string from = module_of(edge.from_file);
    const std::string to = module_of("src/" + edge.target);
    if (from.empty() || to.empty() || from == to) continue;
    const int from_rank = module_rank(from);
    const int to_rank = module_rank(to);
    if (from_rank < 0 || to_rank < 0) continue;
    if (to_rank > from_rank) {
      add(reports[edge.from_file], edge.from_file, edge.line, "G1",
          "include climbs the layer DAG: " + from + " (rank " +
              std::to_string(from_rank) + ") must not include " +
              edge.target + " (" + to + ", rank " + std::to_string(to_rank) +
              ")");
    } else if (to_rank == from_rank) {
      band_graph[from].insert(to);
      band_graph.try_emplace(to);
      band_site.try_emplace(from + ">" + to, edge);
    }
  }

  // Same-rank bands must stay acyclic: flag every edge inside a cycle.
  const SccResult bands = strongly_connected(band_graph);
  for (const auto& [from, outs] : band_graph) {
    for (const auto& to : outs) {
      if (bands.component.at(from) != bands.component.at(to)) continue;
      const auto& comp = bands.members[bands.component.at(from)];
      if (comp.size() < 2) continue;
      std::string cycle;
      for (const auto& m : comp) {
        if (!cycle.empty()) cycle += ", ";
        cycle += m;
      }
      const IncludeEdge& site = band_site.at(from + ">" + to);
      add(reports[site.from_file], site.from_file, site.line, "G1",
          "same-rank include cycle among {" + cycle + "}: " + from +
              " -> " + to + " closes the loop — one of these modules must "
              "move down a layer");
    }
  }

  // File-level include cycles (headers including each other).
  std::map<std::string, std::set<std::string>> file_graph;
  std::map<std::string, IncludeEdge> file_site;
  for (const auto& edge : edges) {
    const std::string resolved = "src/" + edge.target;
    if (!corpus.count(resolved)) continue;
    file_graph[edge.from_file].insert(resolved);
    file_graph.try_emplace(resolved);
    file_site.try_emplace(edge.from_file + ">" + resolved, edge);
  }
  const SccResult files = strongly_connected(file_graph);
  for (const auto& comp : files.members) {
    if (comp.size() < 2) continue;
    std::string cycle;
    for (const auto& m : comp) {
      if (!cycle.empty()) cycle += " -> ";
      cycle += m;
    }
    // Report once, on the lexically-first edge that stays in the cycle.
    for (const auto& from : comp) {
      bool reported = false;
      for (const auto& to : file_graph.at(from)) {
        if (files.component.at(to) != files.component.at(from)) continue;
        const IncludeEdge& site = file_site.at(from + ">" + to);
        add(reports[site.from_file], site.from_file, site.line, "G1",
            "include cycle: " + cycle + " — break the loop with a forward "
            "declaration or an interface split");
        reported = true;
        break;
      }
      if (reported) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression application + A1
// ---------------------------------------------------------------------------

void apply_suppressions(const std::string& path, FileReport& report) {
  for (auto& finding : report.findings) {
    for (auto& allow : report.allows) {
      if (allow.line != finding.line && allow.line != finding.line - 1)
        continue;
      if (std::find(allow.checks.begin(), allow.checks.end(),
                    finding.check) == allow.checks.end())
        continue;
      if (allow.reason.empty()) continue;  // reasonless: A1, no effect
      finding.suppressed = true;
      finding.reason = allow.reason;
      allow.used = true;
    }
  }
  for (const auto& allow : report.allows) {
    const std::string& file = path;
    bool all_known = true;
    for (const auto& check : allow.checks)
      if (!kKnownChecks.count(check)) {
        all_known = false;
        add(report, file, allow.line, "A1",
            "suppression names unknown check '" + check + "'");
      }
    if (allow.reason.empty())
      add(report, file, allow.line, "A1",
          "suppression must carry a reason: cslint:" +
              std::string("allow(...): <why this is safe>"));
    else if (!allow.used && all_known)
      add(report, file, allow.line, "A1",
          "unused suppression: no matching finding on this or the next line");
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<Finding> lint(const std::vector<Source>& sources) {
  std::map<std::string, FileReport> reports;
  std::set<std::string> macro_defined;  // #define'd CS_* names (K1-exempt)
  for (const auto& source : sources) {
    if (!is_cpp_source(source.path)) continue;
    const Stripped stripped = strip(source.text);
    const std::vector<Tok> toks = tokenize(stripped.code);
    for (std::size_t i = 0; i + 2 < toks.size(); ++i)
      if (toks[i].text == "#" && toks[i + 1].text == "define" &&
          starts_with(toks[i + 2].text, "CS_"))
        macro_defined.insert(toks[i + 2].text);
    FileReport& report = reports[source.path];
    check_tokens(source.path, toks, report);
    check_shared_state(source.path, toks, report);
    check_header(source.path, toks, report);
    check_netio_sleeps(source.path, toks, report);
    report.allows = parse_allows(stripped.comments);
  }
  check_knob_registry(sources, macro_defined, reports);
  check_layering(sources, reports);
  std::vector<Finding> all;
  for (auto& [path, report] : reports) {
    for (auto& finding : report.findings)
      if (finding.file.empty()) finding.file = path;
    apply_suppressions(path, report);
    all.insert(all.end(), report.findings.begin(), report.findings.end());
  }
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  return all;
}

bool collect_sources(const std::filesystem::path& root,
                     const std::vector<std::string>& paths,
                     std::vector<Source>* out, std::string* error) {
  namespace fs = std::filesystem;
  auto load = [&](const fs::path& file, const std::string& rel) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      if (error) *error = "cannot read " + file.string();
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out->push_back({rel, text.str()});
    return true;
  };
  auto relative_slash = [&](const fs::path& p) {
    std::string rel = fs::relative(p, root).generic_string();
    return rel;
  };
  for (const auto& entry : paths) {
    const fs::path p = root / entry;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      std::vector<fs::path> files;
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (it->is_directory(ec) &&
            (starts_with(name, ".") || starts_with(name, "build"))) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file(ec) && is_cpp_source(name))
          files.push_back(it->path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& file : files)
        if (!load(file, relative_slash(file))) return false;
    } else if (fs::is_regular_file(p, ec)) {
      if (!load(p, relative_slash(p))) return false;
    } else {
      if (error) *error = "no such file or directory: " + p.string();
      return false;
    }
  }
  // K1/G1 corpus: the knob registry, the knob documentation, and the
  // build/CI metadata that legitimately references knobs (CS_SANITIZE
  // lives in CMake and CI).
  for (const char* extra : {"README.md", "DESIGN.md", "CMakeLists.txt",
                            "src/util/knobs.def"}) {
    std::error_code ec;
    if (fs::is_regular_file(root / extra, ec))
      if (!load(root / extra, extra)) return false;
  }
  std::error_code ec;
  const fs::path workflows = root / ".github" / "workflows";
  if (fs::is_directory(workflows, ec)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(workflows, ec))
      if (entry.is_regular_file(ec)) files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto& file : files)
      if (!load(file, relative_slash(file))) return false;
  }
  return true;
}

std::size_t count_unsuppressed(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const auto& finding : findings)
    if (!finding.suppressed) ++n;
  return n;
}

std::string render_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const auto& finding : findings) {
    if (finding.suppressed) continue;
    out << finding.file << ':' << finding.line << ": [" << finding.check
        << "] " << finding.message << '\n';
  }
  const std::size_t unsuppressed = count_unsuppressed(findings);
  out << "cslint: " << findings.size() << " finding"
      << (findings.size() == 1 ? "" : "s") << " ("
      << (findings.size() - unsuppressed) << " suppressed, " << unsuppressed
      << " unsuppressed)\n";
  return out.str();
}

std::string render_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\"findings\":[";
  bool first = true;
  for (const auto& finding : findings) {
    if (!first) out << ',';
    first = false;
    out << "{\"file\":\"" << json_escape(finding.file)
        << "\",\"line\":" << finding.line << ",\"check\":\""
        << json_escape(finding.check) << "\",\"message\":\""
        << json_escape(finding.message) << "\",\"suppressed\":"
        << (finding.suppressed ? "true" : "false") << ",\"reason\":\""
        << json_escape(finding.reason) << "\"}";
  }
  const std::size_t unsuppressed = count_unsuppressed(findings);
  out << "],\"total\":" << findings.size()
      << ",\"suppressed\":" << (findings.size() - unsuppressed)
      << ",\"unsuppressed\":" << unsuppressed << "}\n";
  return out.str();
}

namespace {

// GitHub workflow-command escaping: the message body escapes %, \r, \n;
// property values (file, title) additionally escape ':' and ','.
std::string gh_escape(std::string_view s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += property ? "%3A" : ":"; break;
      case ',': out += property ? "%2C" : ","; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string render_github(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const auto& finding : findings) {
    if (finding.suppressed) continue;
    out << "::error file=" << gh_escape(finding.file, true)
        << ",line=" << finding.line << ",title=cslint "
        << gh_escape(finding.check, true)
        << "::" << gh_escape(finding.message, false) << '\n';
  }
  const std::size_t unsuppressed = count_unsuppressed(findings);
  out << "cslint: " << findings.size() << " finding"
      << (findings.size() == 1 ? "" : "s") << " ("
      << (findings.size() - unsuppressed) << " suppressed, " << unsuppressed
      << " unsuppressed)\n";
  return out.str();
}

}  // namespace cs::lint
