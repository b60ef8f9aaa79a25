#include "analysis/zones.h"

#include <gtest/gtest.h>

namespace cs::analysis {
namespace {

class ZonesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldConfig config;
    config.domain_count = 250;
    world_ = new synth::World{config};
    DatasetBuilder builder{
        *world_, {.lookup_vantages = 3, .collect_name_servers = false}};
    dataset_ = new AlexaDataset{builder.build()};
    ranges_ = new CloudRanges{world_->ec2(), world_->azure()};
    model_ = new internet::WideAreaModel{{.seed = 51}};
    // The estimators launch their probe fleets into a copy of the world's
    // EC2; the world itself is read-only.
    ec2_ = new cloud::Provider{world_->ec2()};
    proximity_ = new carto::ProximityEstimator{
        *ec2_, {.seed = 51, .total_samples = 900}};
    latency_ = new carto::LatencyZoneEstimator{*ec2_, *model_, {.seed = 51}};
    study_ = new ZoneStudy{run_zone_study(*dataset_, *ranges_, *world_,
                                          *proximity_, *latency_)};
  }
  static void TearDownTestSuite() {
    delete study_;
    delete latency_;
    delete proximity_;
    delete ec2_;
    delete model_;
    delete ranges_;
    delete dataset_;
    delete world_;
  }

  static synth::World* world_;
  static AlexaDataset* dataset_;
  static CloudRanges* ranges_;
  static internet::WideAreaModel* model_;
  static cloud::Provider* ec2_;
  static carto::ProximityEstimator* proximity_;
  static carto::LatencyZoneEstimator* latency_;
  static ZoneStudy* study_;
};

synth::World* ZonesTest::world_ = nullptr;
AlexaDataset* ZonesTest::dataset_ = nullptr;
CloudRanges* ZonesTest::ranges_ = nullptr;
internet::WideAreaModel* ZonesTest::model_ = nullptr;
cloud::Provider* ZonesTest::ec2_ = nullptr;
carto::ProximityEstimator* ZonesTest::proximity_ = nullptr;
carto::LatencyZoneEstimator* ZonesTest::latency_ = nullptr;
ZoneStudy* ZonesTest::study_ = nullptr;

TEST_F(ZonesTest, LatencyRowsCoverProbedRegions) {
  EXPECT_FALSE(study_->latency_rows.empty());
  for (const auto& row : study_->latency_rows) {
    EXPECT_GE(row.target_ips, row.responded);
    std::size_t identified = 0;
    for (const auto& [zone, count] : row.per_zone) identified += count;
    EXPECT_EQ(identified + row.unknown, row.responded) << row.region;
  }
}

TEST_F(ZonesTest, VeracityBookkeepingConsistent) {
  for (const auto& row : study_->veracity_rows) {
    EXPECT_EQ(row.match + row.unknown + row.mismatch, row.total)
        << row.region;
    EXPECT_LE(row.error_rate(), 1.0);
  }
}

TEST_F(ZonesTest, MethodsLargelyAgree) {
  std::size_t match = 0, mismatch = 0;
  for (const auto& row : study_->veracity_rows) {
    match += row.match;
    mismatch += row.mismatch;
  }
  ASSERT_GT(match + mismatch, 20u);
  // Paper overall error: 5.7%; require the same order of magnitude.
  EXPECT_LT(static_cast<double>(mismatch) / (match + mismatch), 0.2);
}

TEST_F(ZonesTest, AccuraciesVsTruthHigh) {
  EXPECT_GT(study_->latency_accuracy_vs_truth, 0.85);
  EXPECT_GT(study_->proximity_accuracy_vs_truth, 0.8);
}

TEST_F(ZonesTest, SubdomainZonesSubsetOfTruth) {
  std::size_t checked = 0, consistent = 0;
  for (std::size_t i = 0; i < dataset_->cloud_subdomains.size(); ++i) {
    const auto& obs = dataset_->cloud_subdomains[i];
    const auto* truth = world_->subdomain_truth(obs.name);
    if (!truth || truth->provider != cloud::ProviderKind::kEc2) continue;
    if (study_->subdomain_zones[i].empty()) continue;
    ++checked;
    bool all_in_truth = true;
    for (const auto zone : study_->subdomain_zones[i])
      all_in_truth &= truth->zones.contains(zone);
    consistent += all_in_truth;
  }
  ASSERT_GT(checked, 30u);
  // Estimation errors exist (that is the point), but most attributions
  // must match ground truth.
  EXPECT_GT(static_cast<double>(consistent) / checked, 0.8);
}

TEST_F(ZonesTest, ZoneCdfShapeMatchesPaper) {
  ASSERT_FALSE(study_->zones_per_subdomain.empty());
  // Paper: 33.2% one zone, 44.5% two, 22.3% three+ -> every bucket
  // populated and no bucket dominant beyond ~2/3.
  EXPECT_GT(study_->fraction_one_zone, 0.1);
  EXPECT_GT(study_->fraction_two_zones, 0.1);
  EXPECT_GT(study_->fraction_three_plus, 0.03);
  EXPECT_LT(study_->fraction_one_zone, 0.7);
  EXPECT_NEAR(study_->fraction_one_zone + study_->fraction_two_zones +
                  study_->fraction_three_plus,
              1.0, 1e-9);
}

TEST_F(ZonesTest, CombinedIdentificationHigh) {
  // Paper: 87% of instances identified by the combined method.
  EXPECT_GT(study_->combined_identified_fraction, 0.6);
}

TEST_F(ZonesTest, UsageSkewAcrossZones) {
  const auto it = study_->usage_per_region.find("ec2.us-east-1");
  ASSERT_NE(it, study_->usage_per_region.end());
  ASSERT_GE(it->second.subdomains.size(), 2u);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& [zone, count] : it->second.subdomains) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  // Table 14: uneven zone usage within a region.
  EXPECT_GT(hi, lo);
}

TEST_F(ZonesTest, DomainsCountedPerZone) {
  for (const auto& [region, usage] : study_->usage_per_region)
    for (const auto& [zone, domains] : usage.domains)
      EXPECT_LE(domains.size(), usage.subdomains.at(zone)) << region;
}

}  // namespace
}  // namespace cs::analysis
