#include "analysis/cost.h"

#include <gtest/gtest.h>

namespace cs::analysis {
namespace {

class CostTest : public ::testing::Test {
 protected:
  CostTest()
      : ec2(cloud::Provider::make_ec2(71)),
        model(internet::WideAreaModel::Config{.seed = 71}) {
    const auto vantages = internet::planetlab_vantages(8);
    std::vector<const cloud::Region*> regions;
    for (const auto& region : ec2.regions()) regions.push_back(&region);
    campaign = run_campaign(model, vantages, regions, 0.25);
  }

  cloud::Provider ec2;
  internet::WideAreaModel model;
  Campaign campaign;
};

TEST_F(CostTest, FrontierCoversEveryK) {
  const auto frontier = cost_latency_frontier(campaign);
  ASSERT_EQ(frontier.size(), 8u);
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(frontier[i].k, static_cast<int>(i + 1));
    EXPECT_EQ(frontier[i].regions.size(), i + 1);
  }
}

TEST_F(CostTest, CostsMonotoneLatencyMonotone) {
  const auto frontier = cost_latency_frontier(campaign);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].total_usd, frontier[i - 1].total_usd);
    EXPECT_LE(frontier[i].avg_rtt_ms, frontier[i - 1].avg_rtt_ms + 1e-9);
  }
}

TEST_F(CostTest, ComponentsAddUp) {
  // cost.cpp's constants: 2 instances per region at $0.12 for 730 hours,
  // 2000 GB of egress at $0.12, and 500 GB replicated at $0.02 per extra
  // region.
  const auto frontier = cost_latency_frontier(campaign);
  for (const auto& cost : frontier) {
    EXPECT_NEAR(cost.total_usd,
                cost.compute_usd + cost.egress_usd + cost.replication_usd,
                1e-9);
    EXPECT_NEAR(cost.compute_usd, cost.k * 2.0 * 0.12 * 730.0, 1e-9);
    // Egress is independent of k.
    EXPECT_NEAR(cost.egress_usd, 2000.0 * 0.12, 1e-9);
  }
  // Replication starts at zero for k=1 and grows linearly.
  EXPECT_NEAR(frontier[0].replication_usd, 0.0, 1e-9);
  EXPECT_NEAR(frontier[3].replication_usd, 3 * 500.0 * 0.02, 1e-9);
}

TEST_F(CostTest, MarginalCostPerMsGrowsAtTheTail) {
  const auto frontier = cost_latency_frontier(campaign);
  // Early additions buy real latency; late ones buy little or nothing, so
  // $/ms either grows or becomes "no gain" (-1).
  const double early = frontier[1].usd_per_ms_saved;
  const double late = frontier[7].usd_per_ms_saved;
  ASSERT_GT(early, 0.0);
  EXPECT_TRUE(late < 0.0 || late > early);
}

}  // namespace
}  // namespace cs::analysis
