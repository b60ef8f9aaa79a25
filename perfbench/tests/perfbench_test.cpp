// The benchmark's own tests: the timing decorator and the traced capture
// composition are transparent, count metrics repeat exactly, and every
// metric is well named, has a unit, and matches BENCHMARK.json.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>

#include "exec/config.h"
#include "timing_transport.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// A small shape of `workload`, in a scratch directory of its own.
class Shape {
 public:
  explicit Shape(const std::string& workload, std::uint64_t seed = 7)
      : params_(default_params(workload, seed)) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path{PERFBENCH_SCRATCH} /
           (std::string{info->name()} + "-" + workload);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    params_.scratch_dir = dir_.string();
    params_.domains = 60;
    params_.threads = 1;
    params_.web_bytes = 8ull << 20;
    params_.resumes = 2;
  }
  ~Shape() { fs::remove_all(dir_); }
  Shape(const Shape&) = delete;
  Shape& operator=(const Shape&) = delete;

  Params& params() { return params_; }

 private:
  Params params_;
  fs::path dir_;
};

Pass traced_pass(const Params& params, Trace& trace) {
  Checks checks;
  Pass pass = run_pass(params, Clock::now(), checks, &trace);
  EXPECT_GT(checks.attempted(), 0u);
  EXPECT_EQ(checks.failed(), 0u);
  return pass;
}

std::uint64_t dataset_digest(const Params& params, bool decorated) {
  cs::core::Study study{study_config(params)};
  std::optional<TimingInstall> timing;
  if (decorated) timing.emplace(study.world());
  const auto digest = artifact_digest(study.dataset());
  if (decorated) {
    EXPECT_GT(timing->transport().totals().exchanges, 0u);
  }
  return digest;
}

TEST(Perfbench, TimingDecoratorIsTransparentAtOneAndPinnedThreads) {
  Shape shape{"probe"};
  for (const unsigned threads : {1u, default_params("probe", 7).threads}) {
    cs::exec::ScopedThreads pin{threads};
    EXPECT_EQ(dataset_digest(shape.params(), false),
              dataset_digest(shape.params(), true))
        << "at CS_THREADS=" << threads;
  }
}

TEST(Perfbench, TimingDecoratorIsTransparentOverSockets) {
  Shape shape{"socket_probe"};
  Shape sim{"probe"};
  cs::exec::ScopedThreads pin{shape.params().threads};
  EXPECT_EQ(dataset_digest(sim.params(), false),
            dataset_digest(shape.params(), true));
}

TEST(Perfbench, TracedCaptureCompositionMatchesStudy) {
  Shape shape{"capture"};
  Trace trace;
  const Pass pass = traced_pass(shape.params(), trace);
  cs::core::Study study{study_config(shape.params())};
  EXPECT_EQ(pass.digests.at("capture_logs"),
            artifact_digest(study.capture_logs()));
  EXPECT_EQ(pass.digests.at("capture"), artifact_digest(study.capture()));
  EXPECT_GT(trace.layers.get("synth.traffic.packets"), 0.0);
}

TEST(Perfbench, UntracedAndTracedPassesAgreeOnEveryArtifact) {
  for (const auto& workload : workload_names()) {
    Shape shape{workload};
    Checks checks;
    const Pass untraced = run_pass(shape.params(), Clock::now(), checks);
    Trace trace;
    const Pass traced = traced_pass(shape.params(), trace);
    EXPECT_EQ(checks.failed(), 0u) << workload;
    EXPECT_FALSE(untraced.digests.empty()) << workload;
    EXPECT_EQ(untraced.digests, traced.digests) << workload;
  }
}

TEST(Perfbench, CountMetricsRepeatExactlyAtOneSeed) {
  const std::regex counted{
      R"(dns\.(exchanges|probes|exchange_failed)|)"
      R"(dns\.(query|response)_bytes_per_exchange|)"
      R"(synth\.traffic\.(packets|max_unit_packets)|pcap\.flow\.flows|)"
      R"(proto\.(conns|http|ssl)|snap\..*\.bytes)"};
  for (const auto& workload : {"probe", "capture", "study_resume"}) {
    Shape shape{workload};
    Trace first;
    Trace second;
    traced_pass(shape.params(), first);
    traced_pass(shape.params(), second);
    std::size_t compared = 0;
    for (const auto& m : first.layers.all()) {
      if (!std::regex_match(m.name, counted)) continue;
      EXPECT_EQ(m.value, second.layers.get(m.name))
          << workload << " " << m.name;
      ++compared;
    }
    EXPECT_GT(compared, 0u) << workload;
  }
}

TEST(Perfbench, MetricNamesAreWellFormedAndHaveUnits) {
  const std::regex name{R"([A-Za-z0-9][A-Za-z0-9_.-]{0,63})"};
  const std::regex unit{R"([A-Za-z0-9_/%.-]{1,16})"};
  for (const auto* catalog : {&end_to_end_catalog(), &per_layer_catalog()})
    for (const auto& [n, u] : *catalog) {
      EXPECT_TRUE(std::regex_match(n, name)) << n;
      EXPECT_TRUE(std::regex_match(u, unit)) << n << " unit '" << u << "'";
    }
}

TEST(Perfbench, TracedRunReportsEveryCataloguedLayerMetric) {
  Shape shape{"probe"};
  Trace trace;
  traced_pass(shape.params(), trace);
  for (const auto& m : trace.layers.all()) {
    bool catalogued = false;
    for (const auto& [n, u] : per_layer_catalog())
      if (n == m.name) {
        catalogued = true;
        EXPECT_EQ(u, m.unit) << m.name;
      }
    EXPECT_TRUE(catalogued) << m.name << " is measured but not catalogued";
  }
}

TEST(Perfbench, ManifestListsExactlyTheCataloguedMetrics) {
  std::ifstream file{PERFBENCH_MANIFEST};
  ASSERT_TRUE(file) << PERFBENCH_MANIFEST;
  const std::string text{std::istreambuf_iterator<char>{file},
                         std::istreambuf_iterator<char>{}};
  const auto manifest = cs::util::parse_json(text);
  ASSERT_TRUE(manifest.has_value());
  const auto expect_same = [&](const char* key, const auto& catalog) {
    const auto* list = manifest->find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->items.size(), catalog.size()) << key;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const auto* n = list->items[i].find("name");
      const auto* u = list->items[i].find("unit");
      ASSERT_NE(n, nullptr);
      ASSERT_NE(u, nullptr);
      EXPECT_EQ(n->text, catalog[i].first) << key << "[" << i << "]";
      EXPECT_EQ(u->text, catalog[i].second) << catalog[i].first;
    }
  };
  expect_same("end_to_end", end_to_end_catalog());
  expect_same("per_layer", per_layer_catalog());
  const auto* workloads = manifest->find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->items.size(), workload_names().size());
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    const auto* n = workloads->items[i].find("name");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->text, workload_names()[i]);
  }
}

}  // namespace
}  // namespace perfbench
