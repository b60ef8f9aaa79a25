#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cslint/lint.h"

namespace {

constexpr const char* kUsage =
    "usage: cslint [--format=text|json|github] [--json] [--root DIR]\n"
    "              [paths...]\n"
    "\n"
    "Lints CloudScope sources against the project invariants (D1\n"
    "determinism, E1 env hygiene, L1 logging, C1 shared state, G1 module\n"
    "layering, K1 knob registry, B1 wire-path waits, S1 header hygiene,\n"
    "A1 suppression hygiene). Paths are relative to --root (default: the\n"
    "current directory); directories are walked recursively. With no\n"
    "paths: src tools examples bench tests. --format=github emits one\n"
    "::error workflow command per finding for CI annotations; --json is\n"
    "shorthand for --format=json. Exits 0 when clean, 1 on unsuppressed\n"
    "findings, 2 on usage or I/O errors.\n";

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string root = ".";
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      format = "json";
    } else if (std::strncmp(arg.c_str(), "--format=", 9) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "github") {
        std::fprintf(stderr, "cslint: unknown format '%s'\n%s",
                     format.c_str(), kUsage);
        return 2;
      }
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fputs("cslint: --root needs a directory\n", stderr);
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cslint: unknown option '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty())
    paths = {"src", "tools", "examples", "bench", "tests"};

  std::vector<cs::lint::Source> sources;
  std::string error;
  if (!cs::lint::collect_sources(root, paths, &sources, &error)) {
    std::fprintf(stderr, "cslint: %s\n", error.c_str());
    return 2;
  }
  const std::vector<cs::lint::Finding> findings = cs::lint::lint(sources);
  const std::string rendered = format == "json"
                                   ? cs::lint::render_json(findings)
                                   : format == "github"
                                         ? cs::lint::render_github(findings)
                                         : cs::lint::render_text(findings);
  std::fputs(rendered.c_str(), stdout);
  return cs::lint::count_unsuppressed(findings) == 0 ? 0 : 1;
}
