// Stage supervision through a real core::Study: each stage is built once,
// and a build that throws (here via the fault plan's stage_abort) is
// handled by the fail/degrade policy. An aborted stage leaves no partial
// artifact behind, and a degraded one is never snapshotted, so a later
// fault-free run on the same checkpoint rebuilds byte-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/snapshot.h"
#include "core/report.h"
#include "core/study.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "snap/codec.h"
#include "snap/supervisor.h"

namespace cs::snap {
namespace {

core::StudyConfig small_config(std::uint64_t seed) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 100;
  config.traffic.total_web_bytes = 2ull * 1024 * 1024;
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = false;
  config.campaign_vantages = 6;
  config.campaign_days = 0.25;
  config.isp_vantages = 10;
  return config;
}

template <typename T>
std::vector<std::uint8_t> encoded(const T& value) {
  Writer w;
  encode_artifact(w, value);
  return std::move(w).take();
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path{testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool has_files_with_extension(const std::filesystem::path& dir,
                              const std::string& extension) {
  for (const auto& entry : std::filesystem::directory_iterator{dir})
    if (entry.path().extension() == extension) return true;
  return false;
}

/// The dataset artifact of a fault-free build, for byte comparisons.
std::vector<std::uint8_t> reference_dataset(std::uint64_t seed) {
  fault::ScopedPlan no_faults{fault::Spec{}};
  core::Study study{small_config(seed)};
  return encoded(study.dataset());
}

TEST(Supervisor, FirstTrySucceedsWithOneAttempt) {
  fault::ScopedPlan no_faults{fault::Spec{}};
  core::Study study{small_config(2013)};
  study.cloud_usage();  // enters cloud_usage, then dataset inside it
  ASSERT_EQ(study.stage_runs().size(), 2u);
  for (const auto& run : study.stage_runs()) {
    EXPECT_EQ(run.attempts, 1) << run.stage;
    EXPECT_FALSE(run.degraded) << run.stage;
    EXPECT_FALSE(run.from_snapshot) << run.stage;
    EXPECT_TRUE(run.last_error.empty()) << run.stage;
  }
}

TEST(Supervisor, FailPolicyRethrowsAfterExhaustion) {
  obs::MetricsRegistry::instance().reset_values();
  const auto dir = fresh_dir("snap_abort_fail");
  auto config = small_config(2013);
  config.checkpoint_dir = dir.string();
  fault::ScopedPlan plan{"stage_abort=1.0,seed=9"};
  core::Study study{config};
  try {
    study.dataset();
    FAIL() << "an aborted stage under kFail must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'dataset' failed"), std::string::npos) << what;
    EXPECT_NE(what.find("injected stage abort"), std::string::npos) << what;
  }
  ASSERT_EQ(study.stage_runs().size(), 1u);
  const auto& run = study.stage_runs().front();
  EXPECT_EQ(run.stage, "dataset");
  EXPECT_EQ(run.attempts, 1);
  EXPECT_FALSE(run.degraded);
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().counter(
                "fault.stage.abort"),
            1u);
  // The abort fired before the build body: nothing reached the disk.
  EXPECT_FALSE(std::filesystem::exists(dir / "dataset.snap"));
  EXPECT_FALSE(has_files_with_extension(dir, ".tmp"));
}

TEST(Supervisor, DegradePolicySubstitutesTheFallback) {
  const auto reference = reference_dataset(2013);
  const auto dir = fresh_dir("snap_abort_degrade");
  auto config = small_config(2013);
  config.checkpoint_dir = dir.string();
  {
    fault::ScopedPlan plan{"stage_abort=1.0,seed=9"};
    auto degraded = config;
    degraded.supervision.on_exhausted = OnExhausted::kDegrade;
    core::Study study{degraded};
    study.build_all();
    EXPECT_EQ(encoded(study.dataset()), encoded(analysis::AlexaDataset{}));
    for (const auto& run : study.stage_runs()) {
      EXPECT_TRUE(run.degraded) << run.stage;
      EXPECT_EQ(run.attempts, 1) << run.stage;
      EXPECT_NE(run.last_error.find("injected stage abort"),
                std::string::npos)
          << run.stage;
    }
  }
  // Degraded artifacts are never snapshotted...
  EXPECT_FALSE(has_files_with_extension(dir, ".snap"));
  EXPECT_FALSE(has_files_with_extension(dir, ".tmp"));

  // ...so a fault-free run on the same checkpoint resumes nothing and
  // builds exactly what a run that never saw the plan builds.
  fault::ScopedPlan no_faults{fault::Spec{}};
  core::Study study{config};
  EXPECT_EQ(encoded(study.dataset()), reference);
  EXPECT_EQ(study.stages_resumed(), 0u);
}

TEST(StageAbortKey, IsAPureFunctionOfTheStageName) {
  EXPECT_EQ(fault::stage_abort_key("dataset"),
            fault::stage_abort_key("dataset"));
  EXPECT_NE(fault::stage_abort_key("dataset"),
            fault::stage_abort_key("capture"));
  EXPECT_NE(fault::stage_abort_key("capture"),
            fault::stage_abort_key("capture_logs"));
}

TEST(StageAbortInjection, DegradedPipelineCompletesAndReportsItself) {
  obs::MetricsRegistry::instance().reset_values();
  // Every stage aborts; under kDegrade the pipeline must still run to
  // completion on empty artifacts and say so.
  fault::ScopedPlan plan{"stage_abort=1.0,seed=9"};
  auto config = small_config(777);
  config.supervision.on_exhausted = OnExhausted::kDegrade;
  core::Study study{config};
  study.build_all();

  for (const auto& run : study.stage_runs()) {
    EXPECT_TRUE(run.degraded) << run.stage;
    EXPECT_EQ(run.attempts, 1) << run.stage;
    EXPECT_FALSE(run.last_error.empty()) << run.stage;
  }

  const std::string quality = core::render_data_quality(study);
  EXPECT_NE(quality.find("DEGRADED"), std::string::npos);
  EXPECT_NE(quality.find("dataset"), std::string::npos);
  EXPECT_NE(quality.find("injected stage abort"), std::string::npos);

  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snapshot.counter("fault.stage.abort"),
            core::Study::stage_table().size());
}

}  // namespace
}  // namespace cs::snap
