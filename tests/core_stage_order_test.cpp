// Stage purity: a stage's artifact is a function of the config alone, not
// of which other stages (or launching renderers) ran before it in the same
// Study. Every stage is digested (FNV-1a over its snapshot encoding) when
// built alone in a fresh Study, and must digest identically when built in
// table order, in reverse order, and after the renderers that launch their
// own instances (Table 11, Figure 7).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/snapshot.h"
#include "core/report.h"
#include "core/study.h"

namespace cs::core {
namespace {

StudyConfig small_config() {
  StudyConfig config;
  config.world.domain_count = 200;
  config.traffic.total_web_bytes = 2ull * 1024 * 1024;
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = false;
  config.campaign_vantages = 6;
  config.campaign_days = 0.25;
  config.isp_vantages = 10;
  return config;
}

template <typename T>
std::uint64_t digest(const T& artifact) {
  snap::Writer w;
  snap::encode_artifact(w, artifact);
  return snap::fnv1a(w.bytes());
}

/// Builds (if needed) and digests one stage of `study`.
std::uint64_t stage_digest(Study& study, std::string_view stage) {
  if (stage == "dataset") return digest(study.dataset());
  if (stage == "cloud_usage") return digest(study.cloud_usage());
  if (stage == "patterns") return digest(study.patterns());
  if (stage == "regions") return digest(study.regions());
  if (stage == "capture_logs") return digest(study.capture_logs());
  if (stage == "capture") return digest(study.capture());
  if (stage == "zone_study") return digest(study.zone_study());
  if (stage == "campaign") return digest(study.campaign());
  if (stage == "isp_study") return digest(study.isp_study());
  ADD_FAILURE() << "unknown stage " << stage;
  return 0;
}

using Digests = std::map<std::string, std::uint64_t>;

std::vector<std::string> table_order() {
  std::vector<std::string> order;
  for (const auto& desc : Study::stage_table()) order.emplace_back(desc.name);
  return order;
}

/// Builds every stage of one Study in `order` and digests each as it is
/// built.
Digests digests_in_order(Study& study, const std::vector<std::string>& order) {
  Digests out;
  for (const auto& stage : order) out[stage] = stage_digest(study, stage);
  return out;
}

TEST(StageOrder, EveryStageDigestIsIndependentOfBuildOrder) {
  const auto config = small_config();
  const auto order = table_order();

  Digests alone;
  for (const auto& stage : order) {
    Study study{config};
    alone[stage] = stage_digest(study, stage);
  }

  const auto expect_matches = [&](const Digests& got, const char* label) {
    for (const auto& stage : order)
      EXPECT_EQ(got.at(stage), alone.at(stage))
          << stage << " built " << label << " differs from built alone";
  };

  {
    Study study{config};
    expect_matches(digests_in_order(study, order), "in stage_table() order");
  }
  {
    Study study{config};
    const std::vector<std::string> reversed{order.rbegin(), order.rend()};
    expect_matches(digests_in_order(study, reversed), "in reverse order");
  }
  {
    Study study{config};
    const auto ec2_instances = study.world().ec2().instance_count();
    const auto azure_instances = study.world().azure().instance_count();
    render_fig7(study);
    render_table11(study);
    expect_matches(digests_in_order(study, order),
                   "after render_fig7 + render_table11");
    render_fig7(study);
    render_table11(study);
    EXPECT_EQ(study.world().ec2().instance_count(), ec2_instances);
    EXPECT_EQ(study.world().azure().instance_count(), azure_instances);
  }
}

TEST(StageOrder, LaunchingRenderersAreRepeatable) {
  Study study{small_config()};
  const auto instances = study.world().ec2().instance_count();
  const auto table11 = render_table11(study);
  const auto fig7 = render_fig7(study);
  EXPECT_EQ(render_table11(study), table11);
  EXPECT_EQ(render_fig7(study), fig7);
  EXPECT_EQ(study.world().ec2().instance_count(), instances);
}

}  // namespace
}  // namespace cs::core
