// The cs::snap acceptance gate: a study killed partway and resumed from
// its checkpoint directory renders byte-identically to an uninterrupted
// run — at CS_THREADS=1 and CS_THREADS=8, on two seeds. Snapshots carry
// the artifacts, and nothing else is needed: stages are pure functions of
// the config (the World is read-only, and every launch goes into a
// stage-local provider copy), so a resumed stage leaves no trace on the
// stages built after it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "analysis/widearea.h"
#include "core/report.h"
#include "core/study.h"
#include "exec/config.h"

namespace cs::core {
namespace {

StudyConfig small_config(std::uint64_t seed) {
  StudyConfig config;
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

/// Renders one artifact per pipeline stage, including the two tables
/// that launch their own EC2 instances during rendering (the sharpest
/// detector of world-state drift after a resume).
std::string render_full(Study& study) {
  std::string out;
  out += render_table1(study.capture());
  out += render_table3(study.cloud_usage());
  out += render_table7(study.patterns());
  out += render_table8(study);
  out += render_table9(study.regions());
  out += render_table11(study);
  out += render_table12(study.zone_study());
  out += render_table14(study.zone_study());
  out += render_table16(study.isp_study());
  out += render_fig9_10(analysis::average_matrix(study.campaign()));
  out += render_fig12(analysis::optimal_k_regions(study.campaign()));
  return out;
}

class ResumeDeterminism : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ResumeDeterminism, ResumedRunMatchesUninterruptedByteForByte) {
  const std::uint64_t seed = GetParam();
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << ", CS_THREADS "
                                    << threads);
    exec::ScopedThreads guard{threads};
    const auto config = small_config(seed);

    // A: the uninterrupted reference run, no checkpointing involved.
    std::string expected;
    {
      Study study{config};
      expected = render_full(study);
    }

    // B: a run "killed" right after capture_logs completes — everything
    // it knew lives only in the checkpoint directory now.
    const auto dir =
        std::filesystem::path{testing::TempDir()} /
        ("snap_resume_" + std::to_string(seed) + "_" +
         std::to_string(threads));
    std::filesystem::remove_all(dir);
    auto ckpt = config;
    ckpt.checkpoint_dir = dir.string();
    {
      Study interrupted{ckpt};
      for (const auto& desc : Study::stage_table()) {
        interrupted.build_stage(desc.name);
        if (std::string_view{desc.name} == "capture_logs") break;
      }
    }

    // A fresh process-equivalent resumes the first five stages from disk
    // and builds the rest; the output must not move by a byte.
    {
      Study resumed{ckpt};
      EXPECT_EQ(render_full(resumed), expected);
      EXPECT_EQ(resumed.stages_resumed(), 5u);
    }

    // C: by now every stage is snapshotted; a third run resumes all nine
    // and still renders identically. build_all() requests every stage:
    // rendering alone never asks for the dataset or the capture logs
    // once their dependents come from snapshots.
    {
      Study full{ckpt};
      full.build_all();
      EXPECT_EQ(render_full(full), expected);
      EXPECT_EQ(full.stages_resumed(), Study::stage_table().size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, ResumeDeterminism,
                         testing::Values(2013ull, 777ull));

}  // namespace
}  // namespace cs::core
