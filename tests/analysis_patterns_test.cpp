#include "analysis/patterns.h"

#include <gtest/gtest.h>

#include "analysis/regions.h"

namespace cs::analysis {
namespace {

class PatternsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldConfig config;
    config.domain_count = 250;
    // Seed 7's sample holds Heroku-without-ELB users (the default seed's
    // 250 domains have none), so every pattern below has a subject.
    config.seed = 7;
    world_ = new synth::World{config};
    DatasetBuilder builder{*world_, {.lookup_vantages = 3}};
    dataset_ = new AlexaDataset{builder.build()};
    ranges_ = new CloudRanges{world_->ec2(), world_->azure()};
    report_ = new PatternReport{analyze_patterns(*dataset_, *ranges_)};
  }
  static void TearDownTestSuite() {
    delete report_;
    delete ranges_;
    delete dataset_;
    delete world_;
  }

  static synth::World* world_;
  static AlexaDataset* dataset_;
  static CloudRanges* ranges_;
  static PatternReport* report_;
};

synth::World* PatternsTest::world_ = nullptr;
AlexaDataset* PatternsTest::dataset_ = nullptr;
CloudRanges* PatternsTest::ranges_ = nullptr;
PatternReport* PatternsTest::report_ = nullptr;

TEST_F(PatternsTest, DetectionMatchesGroundTruth) {
  using synth::FrontEnd;
  std::size_t checked = 0, correct = 0;
  for (std::size_t i = 0; i < dataset_->cloud_subdomains.size(); ++i) {
    const auto& obs = dataset_->cloud_subdomains[i];
    const auto& det = report_->detections[i];
    const auto* truth = world_->subdomain_truth(obs.name);
    ASSERT_NE(truth, nullptr);
    ++checked;
    bool ok = true;
    switch (truth->front_end) {
      case FrontEnd::kVm:
        ok = det.vm_front;
        break;
      case FrontEnd::kElb:
        ok = det.elb && !det.beanstalk && !det.heroku;
        break;
      case FrontEnd::kBeanstalk:
        ok = det.beanstalk && det.elb;  // Beanstalk always fronts an ELB
        break;
      case FrontEnd::kHerokuElb:
        ok = det.heroku && det.elb;
        break;
      case FrontEnd::kHeroku:
        ok = det.heroku && !det.elb;
        break;
      case FrontEnd::kCloudService:
        ok = det.azure_cs;
        break;
      case FrontEnd::kTrafficManager:
        ok = det.azure_tm;
        break;
      case FrontEnd::kOpaqueCname:
        ok = det.unclassified;
        break;
      case FrontEnd::kCdnOnly:
        ok = det.cloudfront || det.azure_cdn;
        break;
      case FrontEnd::kOtherHosting:
        ok = false;  // should never be in the dataset
        break;
    }
    correct += ok;
    EXPECT_TRUE(ok) << obs.name.to_string() << " truth="
                    << synth::to_string(truth->front_end);
  }
  EXPECT_EQ(checked, correct);
}

TEST_F(PatternsTest, VmIsTheDominantEc2FrontEnd) {
  EXPECT_GT(report_->ec2_vm.subdomains, report_->ec2_elb.subdomains);
  EXPECT_GT(report_->ec2_vm.subdomains,
            report_->ec2_heroku_no_elb.subdomains);
  // Paper: 71.5% of EC2 subdomains use a VM front end.
  const double vm_share = static_cast<double>(report_->ec2_vm.subdomains) /
                          report_->ec2_subdomains;
  EXPECT_GT(vm_share, 0.4);
}

TEST_F(PatternsTest, ElbInstancesSharedAcrossSubdomains) {
  if (report_->ec2_elb.subdomains < 5) GTEST_SKIP() << "too few ELB users";
  // Physical proxies are fewer than (logical ELB users x proxies-per-use).
  std::size_t assignments = 0;
  for (const auto& [ip, count] : report_->subdomains_per_physical_elb)
    assignments += count;
  EXPECT_GE(assignments, report_->ec2_elb.instances);
}

TEST_F(PatternsTest, HerokuFleetSmall) {
  ASSERT_GT(report_->ec2_heroku_no_elb.subdomains, 0u)
      << "the fixture's sample must hold a Heroku-without-ELB user";
  // The Heroku fleet multiplexes subdomains over few IPs (paper: 58K / 94).
  EXPECT_GT(report_->ec2_heroku_no_elb.instances, 0u);
  EXPECT_LE(report_->ec2_heroku_no_elb.instances,
            cloud::HerokuManager::kFleetSize);
}

TEST_F(PatternsTest, NameServerLocationsClassified) {
  EXPECT_GT(report_->ns_total, 0u);
  EXPECT_EQ(report_->ns_total,
            report_->ns_in_cloudfront + report_->ns_in_ec2 +
                report_->ns_in_azure + report_->ns_external);
  // Paper: the overwhelming majority of name servers are outside the
  // clouds.
  EXPECT_GT(report_->ns_external, report_->ns_total / 2);
}

TEST_F(PatternsTest, NameServerCdfInPaperBand) {
  // Fig 5: most subdomains use 3-10 name servers.
  const auto& cdf = report_->name_servers_per_subdomain;
  ASSERT_FALSE(cdf.empty());
  EXPECT_GE(cdf.value_at(0.1), 3.0);
  EXPECT_LE(cdf.value_at(0.9), 10.0);
}

TEST_F(PatternsTest, Table8RowsConsistent) {
  const auto rows = analyze_top_domain_features(*dataset_, *report_, 10);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_LE(row.vm, row.cloud_subdomains);
    EXPECT_LE(row.elb, row.cloud_subdomains);
    // ELB IPs only present when some subdomain uses ELB.
    if (row.elb == 0) {
      EXPECT_EQ(row.elb_ips, 0u);
    }
  }
  // amazon.com (rank 9): ELB-heavy with zero VM front ends, per spec.
  for (const auto& row : rows)
    if (row.domain == "amazon.com") {
      EXPECT_EQ(row.vm, 0u);
      EXPECT_EQ(row.elb, 2u);
      EXPECT_GT(row.elb_ips, 10u);
    }
}

TEST_F(PatternsTest, RegionReportConsistentWithTruth) {
  const auto regions = analyze_regions(*dataset_, *ranges_);
  for (std::size_t i = 0; i < dataset_->cloud_subdomains.size(); ++i) {
    const auto& obs = dataset_->cloud_subdomains[i];
    const auto* truth = world_->subdomain_truth(obs.name);
    if (!truth || truth->front_end == synth::FrontEnd::kCdnOnly) continue;
    // Every detected region must be a truth region.
    for (const auto& region : regions.subdomain_regions[i])
      EXPECT_NE(std::find(truth->regions.begin(), truth->regions.end(),
                          region),
                truth->regions.end())
          << obs.name.to_string() << " " << region;
  }
}

TEST_F(PatternsTest, SingleRegionDominates) {
  const auto regions = analyze_regions(*dataset_, *ranges_);
  EXPECT_GT(regions.ec2_single_region_fraction, 0.9);   // paper: 97%
  EXPECT_GT(regions.azure_single_region_fraction, 0.8);  // paper: 92%
}

TEST_F(PatternsTest, UsEastDominatesEc2Regions) {
  const auto regions = analyze_regions(*dataset_, *ranges_);
  const auto it = regions.subdomains_per_region.find("ec2.us-east-1");
  ASSERT_NE(it, regions.subdomains_per_region.end());
  for (const auto& [region, count] : regions.subdomains_per_region) {
    if (region.rfind("ec2.", 0) == 0) {
      EXPECT_GE(it->second, count) << region;
    }
  }
}

TEST_F(PatternsTest, CustomerGeoMismatchInPaperBand) {
  const auto regions = analyze_regions(*dataset_, *ranges_);
  const auto geo = analyze_customer_geo(*dataset_, regions, *world_);
  ASSERT_GT(geo.classified_subdomains, 50u);
  const double country = static_cast<double>(geo.country_mismatch) /
                         geo.classified_subdomains;
  const double continent = static_cast<double>(geo.continent_mismatch) /
                           geo.classified_subdomains;
  // Paper: 47% / 32%; require the qualitative shape.
  EXPECT_GT(country, 0.3);
  EXPECT_LT(country, 0.75);
  EXPECT_LT(continent, country);
}

TEST_F(PatternsTest, Table10RegionRowsConsistent) {
  const auto regions = analyze_regions(*dataset_, *ranges_);
  const auto rows = analyze_top_domain_regions(*dataset_, regions, 14);
  for (const auto& row : rows) {
    EXPECT_GE(row.cloud_subdomains, row.k1 + row.k2);
    EXPECT_GE(row.total_regions, 1u);
    if (row.domain == "live.com") {
      EXPECT_EQ(row.total_regions, 3u);
    }
    if (row.domain == "msn.com") {
      EXPECT_EQ(row.total_regions, 5u);
      EXPECT_GT(row.k2, 0u);  // 11 of 89 subdomains use two regions
    }
  }
}

}  // namespace
}  // namespace cs::analysis
