#include "cslint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

// Fixture-driven coverage of cs-lint: for every check a true-positive, a
// clean look-alike, and a suppressed variant, plus the JSON shape and a
// self-check that the shipped tree lints clean. Fixtures are in-memory
// Sources, so the scanner/check registry is exercised without touching
// the filesystem.
namespace {

using cs::lint::Finding;
using cs::lint::Source;

std::vector<Finding> run(std::vector<Source> sources) {
  return cs::lint::lint(sources);
}

std::size_t count_check(const std::vector<Finding>& findings,
                        std::string_view check, bool suppressed = false) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.check == check && f.suppressed == suppressed;
      }));
}

// The suppression marker, assembled so this file never contains it
// verbatim (the shipped tree must stay free of stray allows).
std::string allow(const std::string& args) {
  return std::string("// cslint:") + "allow(" + args + ")";
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

TEST(CslintScanner, IgnoresCommentsStringsAndRawStrings) {
  const Source source{"src/dns/fixture.cpp", R"cpp(
// std::random_device in a line comment is fine
/* getenv("HOME") in a block comment is fine */
const char* const a = "std::random_device getenv srand";
const char* const b = R"(time( clock( std::cout))";
constexpr char c = '"';
const char* const d = "after an escaped quote: \" srand(1) ";
)cpp"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintScanner, DigitSeparatorIsNotACharLiteral) {
  // A 1'000'000 separator must not open a char literal and swallow the
  // rest of the file (which would hide the violation on the next line).
  const Source source{"src/dns/fixture.cpp",
                      "int f() {\n  int n = 1'000'000;\n  return n + rand();\n}\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "D1");
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// D1 determinism
// ---------------------------------------------------------------------------

TEST(CslintD1, FlagsAmbientRandomnessAndClocks) {
  const Source source{"src/synth/fixture.cpp", R"cpp(
#include <random>
std::mt19937 make() { return std::mt19937{std::random_device{}()}; }
long now() { return time(nullptr); }
void seed() { srand(42); }
long tick() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
)cpp"};
  const auto findings = run({source});
  EXPECT_EQ(count_check(findings, "D1"), 4u);
}

TEST(CslintD1, CleanSeededCodeAndMemberCallsPass) {
  const Source source{"src/synth/fixture.cpp", R"cpp(
#include "util/rng.h"
double draw(cs::util::Rng& rng) { return rng.uniform(); }
struct Sim { long time(int) { return 0; } };
long use(Sim& s) { return s.time(1); }   // member call, not ::time
int lifetime(int x) { return x; }        // 'time' substring, distinct token
)cpp"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintD1, ObsAndRngAreAllowlisted) {
  const std::string body =
      "long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(run({{"src/obs/fixture.cpp", body}}).empty());
  EXPECT_TRUE(run({{"src/util/rng_fixture.cpp", body}}).empty());
  // snap/ is not exempt: nothing in it needs a clock.
  EXPECT_EQ(count_check(run({{"src/snap/fixture.cpp", body}}), "D1"), 1u);
  EXPECT_FALSE(run({{"src/core/fixture.cpp", body}}).empty());
}

TEST(CslintD1, NetioIsNotAllowlisted) {
  // netio reads time through obs::steady_now_us(), so a raw clock read
  // anywhere under src/netio/ is a finding.
  const std::string body =
      "long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_EQ(count_check(run({{"src/netio/reactor.cpp", body}}), "D1"), 1u);
  EXPECT_EQ(count_check(run({{"src/netio/server.cpp", body}}), "D1"), 1u);
}

TEST(CslintD1, SuppressionWithReasonCountsButPasses) {
  const Source source{"src/core/fixture.cpp",
                      allow("D1") + ": timing metric only, not in output\n" +
                          "long f() { return std::chrono::steady_clock::now()"
                          ".time_since_epoch().count(); }\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[0].reason, "timing metric only, not in output");
  EXPECT_EQ(cs::lint::count_unsuppressed(findings), 0u);
}

// ---------------------------------------------------------------------------
// E1 env hygiene
// ---------------------------------------------------------------------------

TEST(CslintE1, FlagsGetenvOutsideUtilEnv) {
  const Source source{"src/dns/fixture.cpp",
                      "const char* home() { return std::getenv(\"HOME\"); }\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "E1");
}

TEST(CslintE1, UtilEnvCppIsTheOneHome) {
  const Source source{"src/util/env.cpp",
                      "const char* get() { return std::getenv(\"CS_TRACE\"); }\n"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintE1, SuppressedGetenvCounts) {
  const Source source{
      "src/dns/fixture.cpp",
      "const char* tz() { return ::getenv(\"TZ\"); }  " + allow("E1") +
          ": not a CS_ knob\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// L1 logging
// ---------------------------------------------------------------------------

TEST(CslintL1, FlagsDirectOutputInLibraryCode) {
  const Source source{"src/analysis/fixture.cpp", R"cpp(
#include <iostream>
void report() { std::cout << "done\n"; }
void warn() { std::cerr << "oops\n"; }
void c_style() { printf("%d\n", 1); }
void c_stderr() { fprintf(stderr, "oops\n"); }
)cpp"};
  EXPECT_EQ(count_check(run({source}), "L1"), 4u);
}

TEST(CslintL1, ExamplesBenchTestsMayPrint) {
  const std::string body =
      "#include <iostream>\nvoid f() { std::cout << 1; }\n";
  EXPECT_TRUE(run({{"examples/fixture.cpp", body}}).empty());
  EXPECT_TRUE(run({{"bench/fixture.cpp", body}}).empty());
  EXPECT_TRUE(run({{"tests/fixture.cpp", body}}).empty());
}

TEST(CslintL1, FileDirectedFprintfIsFine) {
  const Source source{"src/core/fixture.cpp",
                      "void dump(std::FILE* f) { fprintf(f, \"x\"); }\n"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintL1, SuppressedSinkCounts) {
  const Source source{"src/obs/fixture.cpp",
                      allow("L1") + ": the log sink itself\n" +
                          "void sink() { fprintf(stderr, \"line\"); }\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// C1 shared state
// ---------------------------------------------------------------------------

TEST(CslintC1, FlagsMutableNamespaceScopeState) {
  const Source source{"src/carto/fixture.cpp", R"cpp(
namespace cs::carto {
int g_call_count = 0;
namespace { double g_last; }
}
)cpp"};
  EXPECT_EQ(count_check(run({source}), "C1"), 2u);
}

TEST(CslintC1, ConstAtomicMutexAndLocalsPass) {
  const Source source{"src/carto/fixture.cpp", R"cpp(
#include <atomic>
#include <mutex>
namespace cs::carto {
constexpr int kLimit = 8;
const char* const kName = "carto";
std::atomic<int> g_hits{0};
std::mutex g_lock;
int bump() { static int local = 0; return ++local; }
void touch() { int x = 0; (void)x; }
}
)cpp"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintC1, FlagsMutableClassStatics) {
  const Source source{"src/carto/fixture.cpp", R"cpp(
struct Estimator {
  static int instances_;          // mutable class-static: flagged
  static constexpr int kMax = 4;  // constant: fine
  int per_object_ = 0;            // instance state: fine
};
)cpp"};
  const auto findings = run({source});
  ASSERT_EQ(count_check(findings, "C1"), 1u);
  EXPECT_NE(findings[0].message.find("instances_"), std::string::npos);
}

TEST(CslintC1, FunctionsAndTypesAreNotState) {
  const Source source{"src/carto/fixture.cpp", R"cpp(
namespace cs::carto {
struct Point;
using Row = int;
int score(int x);
int score(int x) { return x; }
template <typename T> T id(T v) { return v; }
extern int g_elsewhere;
}
)cpp"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintC1, SuppressedThreadLocalCounts) {
  const Source source{"src/exec/fixture.cpp",
                      "thread_local int tls_depth = 0;  " + allow("C1") +
                          ": per-thread cursor, never shared\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// K1 knob registry
// ---------------------------------------------------------------------------

// A one-entry fixture registry (the doc header is why entries start at a
// known line: this one's entry is line 2).
const char* const kFixtureRegistry =
    "// fixture registry\n"
    "CS_KNOB(kFixtureKnob, \"CS_FIXTURE_KNOB\", flag, \"0\", \"fixture\")\n";

TEST(CslintK1, UnregisteredKnobIsFlaggedAtFirstReference) {
  const auto findings = run({
      {"src/core/fixture.cpp",
       "bool on() { return env_text(\"CS_UNREGISTERED\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"src/core/other.cpp",
       "bool f() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"README.md", "`CS_FIXTURE_KNOB=1` documented.\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_EQ(findings[0].file, "src/core/fixture.cpp");
  EXPECT_NE(findings[0].message.find("CS_UNREGISTERED"), std::string::npos);
  EXPECT_NE(findings[0].message.find("not registered"), std::string::npos);
}

TEST(CslintK1, DeadKnobIsFlaggedInTheRegistry) {
  const auto findings = run({
      {"src/core/fixture.cpp", "int f() { return 0; }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md", "`CS_FIXTURE_KNOB=1` documented.\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_EQ(findings[0].file, "src/util/knobs.def");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("dead knob"), std::string::npos);
}

TEST(CslintK1, EnumIdReferenceKeepsAKnobAlive) {
  const auto findings = run({
      {"src/core/fixture.cpp",
       "bool on() { return env_text(util::Knob::kFixtureKnob).has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md", "`CS_FIXTURE_KNOB=1` documented.\n"},
  });
  EXPECT_TRUE(findings.empty());
}

TEST(CslintK1, RegisteredButUndocumentedKnobIsFlagged) {
  const auto findings = run({
      {"src/core/fixture.cpp",
       "bool on() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md", "no knobs documented\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_EQ(findings[0].file, "src/util/knobs.def");
  EXPECT_NE(findings[0].message.find("README.md"), std::string::npos);
}

TEST(CslintK1, DocsMentioningAnUnregisteredKnobAreFlagged) {
  const auto findings = run({
      {"src/core/fixture.cpp",
       "bool f() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md",
       "`CS_FIXTURE_KNOB=1` documented.\nSet `CS_REMOVED_KNOB=1` too.\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_EQ(findings[0].file, "README.md");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(CslintK1, MacroDefinesAndPrefixMentionsAreExempt) {
  const auto findings = run({
      {"src/util/fixture.h",
       "#pragma once\n"
       "#define CS_FIXTURE_MACRO(x) x\n"
       "// tune the CS_NETIO_ family of knobs\n"
       "int f(int v) { return CS_FIXTURE_MACRO(v); }\n"
       "struct CS_Mixed {};\n"},
      {"src/core/fixture.cpp",
       "bool f() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md",
       "`CS_FIXTURE_KNOB=1` documented; CS_FIXTURE_MACRO is a macro.\n"},
  });
  EXPECT_TRUE(findings.empty());
}

TEST(CslintK1, MalformedRegistryEntryIsFlagged) {
  const auto findings = run({
      {"src/util/knobs.def", "CS_KNOB(broken entry with no name)\n"},
      {"README.md", "no knobs\n"},
  });
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
}

TEST(CslintK1, TestsMayUseFixtureKnobs) {
  const auto findings = run({
      {"tests/fixture.cpp",
       "bool on() { return env_text(\"CS_ONLY_IN_TESTS\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"src/core/fixture.cpp",
       "bool f() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"README.md", "`CS_FIXTURE_KNOB=1` documented.\n"},
  });
  EXPECT_TRUE(findings.empty());
}

// README knob-table rows repeat the registry entry's kind and default.
std::vector<Finding> run_with_readme_row(const std::string& row) {
  return run({
      {"src/core/fixture.cpp",
       "bool f() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"src/util/knobs.def", kFixtureRegistry},
      {"README.md",
       "| knob | kind | default | what it does |\n|---|---|---|---|\n" + row},
  });
}

TEST(CslintK1, ReadmeRowWithAWrongDefaultIsFlagged) {
  const auto findings =
      run_with_readme_row("| `CS_FIXTURE_KNOB` | flag | 1 | fixture |\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_EQ(findings[0].file, "README.md");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("default '1'"), std::string::npos)
      << findings[0].message;
}

TEST(CslintK1, ReadmeRowWithAWrongKindIsFlagged) {
  const auto findings =
      run_with_readme_row("| `CS_FIXTURE_KNOB` | unsigned | 0 | fixture |\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "K1");
  EXPECT_NE(findings[0].message.find("kind 'unsigned'"), std::string::npos)
      << findings[0].message;
}

TEST(CslintK1, ReadmeRowMatchingTheRegistryPasses) {
  EXPECT_TRUE(
      run_with_readme_row("| `CS_FIXTURE_KNOB` | flag | 0 | fixture |\n")
          .empty());
}

TEST(CslintK1, WithoutARegistryTheCheckIsOff) {
  // Fixture corpora without a knobs.def (most tests above predate K1)
  // must not drown in registry findings.
  const auto findings = run({
      {"src/core/fixture.cpp",
       "bool on() { return env_text(\"CS_FIXTURE_KNOB\").has_value(); }\n"},
      {"README.md", "nothing documented\n"},
  });
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// G1 module layering
// ---------------------------------------------------------------------------

TEST(CslintG1, BackEdgeUpTheLayerDagIsFlagged) {
  const Source source{"src/obs/fixture.h",
                      "#pragma once\n#include \"exec/thread_pool.h\"\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "G1");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("climbs"), std::string::npos);
}

TEST(CslintG1, DownwardAndSameModuleIncludesPass) {
  const Source source{"src/netio/fixture.cpp",
                      "#include \"netio/wire.h\"\n"
                      "#include \"analysis/snapshot.h\"\n"
                      "#include \"util/sync.h\"\n"
                      "#include <vector>\n"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintG1, AcyclicSameRankEdgesPass) {
  // cloud -> dns is a sanctioned same-rank edge (both rank 5, no cycle).
  const Source source{"src/cloud/fixture.h",
                      "#pragma once\n#include \"dns/transport.h\"\n"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintG1, SameRankModuleCycleIsFlagged) {
  const auto findings = run({
      {"src/cloud/a.h", "#pragma once\n#include \"dns/b.h\"\n"},
      {"src/dns/b.h", "#pragma once\n#include \"cloud/a.h\"\n"},
  });
  // Both same-rank edges sit on the cycle, and the file-level cycle is
  // reported once on top.
  EXPECT_GE(count_check(findings, "G1"), 3u);
  bool names_modules = false;
  for (const auto& f : findings)
    if (f.message.find("cloud") != std::string::npos &&
        f.message.find("dns") != std::string::npos)
      names_modules = true;
  EXPECT_TRUE(names_modules);
}

TEST(CslintG1, HeaderCycleWithinAModuleIsFlagged) {
  const auto findings = run({
      {"src/net/a.h", "#pragma once\n#include \"net/b.h\"\n"},
      {"src/net/b.h", "#pragma once\n#include \"net/a.h\"\n"},
  });
  ASSERT_EQ(count_check(findings, "G1"), 1u);
  const auto it = std::find_if(findings.begin(), findings.end(),
                               [](const Finding& f) { return f.check == "G1"; });
  EXPECT_NE(it->message.find("include cycle"), std::string::npos);
}

TEST(CslintG1, SuppressedBackEdgeCounts) {
  const Source source{"src/obs/fixture.h",
                      "#pragma once\n#include \"exec/thread_pool.h\"  " +
                          allow("G1") + ": transitional, tracked in DESIGN\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// B1 wire-path waits
// ---------------------------------------------------------------------------

TEST(CslintB1, SleepAnywhereInNetioIsFlagged) {
  const Source source{"src/netio/fixture.cpp",
                      "#include <thread>\n"
                      "void nap() { usleep(100); }\n"
                      "void doze() { std::this_thread::sleep_for(x); }\n"};
  EXPECT_EQ(count_check(run({source}), "B1"), 2u);
}

TEST(CslintB1, OtherModulesMaySleep) {
  const Source source{"src/snap/fixture.cpp",
                      "void backoff() { std::this_thread::sleep_for(d); }\n"};
  EXPECT_TRUE(run({source}).empty());
}

// ---------------------------------------------------------------------------
// S1 header hygiene
// ---------------------------------------------------------------------------

TEST(CslintS1, MissingPragmaOnceAndUsingNamespace) {
  const Source source{"src/net/fixture.h",
                      "using namespace std;\nint f();\n"};
  const auto findings = run({source});
  EXPECT_EQ(count_check(findings, "S1"), 2u);
}

TEST(CslintS1, CleanHeaderPasses) {
  const Source source{"src/net/fixture.h",
                      "#pragma once\nnamespace cs::net { int f(); }\n"};
  EXPECT_TRUE(run({source}).empty());
}

TEST(CslintS1, CppFilesNeedNoPragma) {
  const Source source{"src/net/fixture.cpp", "int f() { return 0; }\n"};
  EXPECT_TRUE(run({source}).empty());
}

// ---------------------------------------------------------------------------
// A1 suppression hygiene
// ---------------------------------------------------------------------------

TEST(CslintA1, ReasonlessAllowDoesNotSuppress) {
  const Source source{"src/dns/fixture.cpp",
                      "int f() { return rand(); }  " + allow("D1") + "\n"};
  const auto findings = run({source});
  EXPECT_EQ(count_check(findings, "D1"), 1u);  // still unsuppressed
  EXPECT_EQ(count_check(findings, "A1"), 1u);  // and the allow is flagged
  EXPECT_EQ(cs::lint::count_unsuppressed(findings), 2u);
}

TEST(CslintA1, UnknownCheckIdIsFlagged) {
  const Source source{"src/dns/fixture.cpp",
                      allow("Z9") + ": no such check\nint f() { return 0; }\n"};
  const auto findings = run({source});
  ASSERT_EQ(count_check(findings, "A1"), 1u);
}

TEST(CslintA1, UnusedAllowIsFlagged) {
  const Source source{"src/dns/fixture.cpp",
                      "int f() { return 0; }  " + allow("D1") +
                          ": nothing here\n"};
  const auto findings = run({source});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "A1");
  EXPECT_NE(findings[0].message.find("unused"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Output shapes
// ---------------------------------------------------------------------------

TEST(CslintOutput, TextRendersFileLineCheckMessage) {
  const auto findings =
      run({{"src/dns/fixture.cpp", "int f() { return rand(); }\n"}});
  const std::string text = cs::lint::render_text(findings);
  EXPECT_NE(text.find("src/dns/fixture.cpp:1: [D1] "), std::string::npos);
  EXPECT_NE(text.find("1 unsuppressed"), std::string::npos);
}

TEST(CslintOutput, JsonShapeAndEscaping) {
  const auto findings = run({
      {"src/dns/fixture.cpp",
       "int f() { return rand(); }  " + allow("D1") +
           ": has \"quotes\" in reason\n"},
  });
  const std::string json = cs::lint::render_json(findings);
  EXPECT_NE(json.find("\"findings\":["), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/dns/fixture.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"D1\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":true"), std::string::npos);
  EXPECT_NE(json.find("has \\\"quotes\\\" in reason"), std::string::npos);
  EXPECT_NE(json.find("\"total\":1,\"suppressed\":1,\"unsuppressed\":0"),
            std::string::npos);
}

TEST(CslintOutput, GithubFormatEmitsWorkflowCommands) {
  const auto findings = run({
      {"src/dns/fixture.cpp",
       "int f() { return rand(); }\n"
       "int g() { return rand(); }  " + allow("D1") + ": fixture\n"},
  });
  const std::string gh = cs::lint::render_github(findings);
  EXPECT_NE(gh.find("::error file=src/dns/fixture.cpp,line=1,"
                    "title=cslint D1::"),
            std::string::npos);
  // Suppressed findings never become annotations.
  EXPECT_EQ(gh.find("line=2,"), std::string::npos);
  EXPECT_NE(gh.find("1 unsuppressed"), std::string::npos);
  // The message body must escape the characters GitHub treats as
  // command delimiters.
  const std::string escaped = cs::lint::render_github(
      {{.file = "src/a.cpp", .line = 1, .check = "D1",
        .message = "100% broken\nsecond line"}});
  EXPECT_NE(escaped.find("100%25 broken%0Asecond line"), std::string::npos);
}

TEST(CslintOutput, FindingsAreSortedByFileLineCheck) {
  const auto findings = run({
      {"src/zz/fixture.cpp", "int f() { return rand(); }\n"},
      {"src/aa/fixture.cpp",
       "int f() { return rand(); }\nint g() { return rand(); }\n"},
  });
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/aa/fixture.cpp");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].file, "src/zz/fixture.cpp");
}

// ---------------------------------------------------------------------------
// Self-check: the shipped tree lints clean
// ---------------------------------------------------------------------------

TEST(CslintSelfCheck, ShippedTreeHasNoUnsuppressedFindings) {
  std::vector<Source> sources;
  std::string error;
  ASSERT_TRUE(cs::lint::collect_sources(
      CSLINT_SOURCE_DIR, {"src", "tools", "examples", "bench", "tests"},
      &sources, &error))
      << error;
  ASSERT_GT(sources.size(), 100u);  // the walk actually found the tree
  const auto findings = cs::lint::lint(sources);
  std::string report;
  for (const auto& f : findings)
    if (!f.suppressed)
      report += f.file + ":" + std::to_string(f.line) + " [" + f.check +
                "] " + f.message + "\n";
  EXPECT_EQ(cs::lint::count_unsuppressed(findings), 0u) << report;
  // The intentional, annotated exceptions stay visible as suppressed
  // findings rather than vanishing.
  EXPECT_GE(findings.size(), 4u);
}

}  // namespace
