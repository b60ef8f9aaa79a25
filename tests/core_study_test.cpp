#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/snapshot.h"
#include "core/report.h"
#include "exec/config.h"
#include "pcap/flow.h"
#include "proto/logs.h"
#include "synth/traffic.h"

namespace cs::core {
namespace {

/// End-to-end integration: one Study drives the complete pipeline.
class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.world.domain_count = 220;
    config.traffic.total_web_bytes = 4ull * 1024 * 1024;
    config.dataset.lookup_vantages = 2;
    config.campaign_vantages = 8;
    config.campaign_days = 0.25;
    config.isp_vantages = 40;
    study_ = new Study{config};
  }
  static void TearDownTestSuite() { delete study_; }

  static Study* study_;
};

Study* StudyTest::study_ = nullptr;

TEST_F(StudyTest, StagesAreCachedAcrossCalls) {
  const auto& a = study_->dataset();
  const auto& b = study_->dataset();
  EXPECT_EQ(&a, &b);
  const auto& pa = study_->patterns();
  const auto& pb = study_->patterns();
  EXPECT_EQ(&pa, &pb);
}

TEST_F(StudyTest, RankMapKeyedByDomain) {
  const auto& ranks = study_->rank_map();
  EXPECT_EQ(ranks.size(), 220u);
  EXPECT_EQ(ranks.at("pinterest.com"), 35u);
}

TEST_F(StudyTest, AllTableRenderersProduceOutput) {
  EXPECT_NE(render_table1(study_->capture()).find("EC2"), std::string::npos);
  EXPECT_NE(render_table2(study_->capture()).find("HTTPS"),
            std::string::npos);
  EXPECT_NE(render_table3(study_->cloud_usage()).find("EC2 + Other"),
            std::string::npos);
  EXPECT_NE(render_table4(study_->cloud_usage()).find("Rank"),
            std::string::npos);
  EXPECT_NE(render_table5(study_->capture()).find("dropbox.com"),
            std::string::npos);
  EXPECT_NE(render_table6(study_->capture()).find("text/"),
            std::string::npos);
  EXPECT_NE(render_table7(study_->patterns()).find("Heroku"),
            std::string::npos);
  EXPECT_NE(render_table8(*study_).find("Domain"), std::string::npos);
  EXPECT_NE(render_table9(study_->regions()).find("ec2.us-east-1"),
            std::string::npos);
  EXPECT_NE(render_table10(*study_).find("k=1"), std::string::npos);
}

TEST_F(StudyTest, ZoneAndIspRenderersProduceOutput) {
  EXPECT_NE(render_table12(study_->zone_study()).find("% unk"),
            std::string::npos);
  EXPECT_NE(render_table13(study_->zone_study()).find("error rate"),
            std::string::npos);
  EXPECT_NE(render_table14(study_->zone_study()).find("# Subdom"),
            std::string::npos);
  EXPECT_NE(render_table15(*study_).find("# zones"), std::string::npos);
  EXPECT_NE(render_table16(study_->isp_study()).find("AZ1"),
            std::string::npos);
}

TEST_F(StudyTest, FigureRenderersProduceSeries) {
  EXPECT_NE(render_fig3(study_->capture()).find("quantile"),
            std::string::npos);
  EXPECT_NE(render_fig4(study_->patterns()).find("VM instances"),
            std::string::npos);
  EXPECT_NE(render_fig5(study_->patterns()).find("DNS servers"),
            std::string::npos);
  EXPECT_NE(render_fig6(study_->regions()).find("EC2 subdomains"),
            std::string::npos);
  EXPECT_NE(render_fig8(study_->zone_study()).find("one zone"),
            std::string::npos);
  const auto averages = analysis::average_matrix(study_->campaign());
  EXPECT_NE(render_fig9_10(averages).find("Figure 9"), std::string::npos);
  const auto k = analysis::optimal_k_regions(study_->campaign());
  EXPECT_NE(render_fig12(k).find("best regions"), std::string::npos);
}

TEST_F(StudyTest, Table11ExperimentRuns) {
  const auto table = render_table11(*study_);
  EXPECT_NE(table.find("t1.micro"), std::string::npos);
  EXPECT_NE(table.find("m3.2xlarge"), std::string::npos);
}

TEST_F(StudyTest, CampaignShapeMatchesConfig) {
  const auto& campaign = study_->campaign();
  EXPECT_EQ(campaign.vantages.size(), 8u);
  EXPECT_EQ(campaign.region_names.size(), 8u);
  EXPECT_EQ(campaign.rounds(), 24u);
}

TEST_F(StudyTest, HeadlineNumbersInPaperBands) {
  // The cross-cutting sanity panel: every headline statistic the paper
  // reports lands in a defensible band on the default small universe.
  const auto& usage = study_->cloud_usage();
  EXPECT_GT(usage.domains.total, 20u);

  const auto& regions = study_->regions();
  EXPECT_GT(regions.ec2_single_region_fraction, 0.9);

  const auto& capture = study_->capture();
  EXPECT_GT(capture.top_ec2_domains.at(0).percent_of_web, 50.0);

  const auto& zones = study_->zone_study();
  EXPECT_GT(zones.combined_identified_fraction, 0.5);
}

// capture_logs analyses each unit while its frames live and orders the
// records at the end; it must encode to exactly the bytes of analysing
// the FlowAssembler-assembled whole capture, at any thread count.
TEST(StudyCapture, UnitPathMatchesWholeCaptureAnalysis) {
  StudyConfig config;
  config.world.domain_count = 150;
  config.traffic.total_web_bytes = 3ull * 1024 * 1024;
  for (const unsigned threads : {1u, 4u}) {
    exec::ScopedThreads guard{threads};
    Study study{config};
    snap::Writer got;
    snap::encode_artifact(got, study.capture_logs());

    synth::TrafficGenerator generator{study.world(), config.traffic};
    pcap::FlowAssembler assembler;
    generator.generate_units(
        [&](std::vector<pcap::Packet>&& unit) { assembler.feed(unit); });
    snap::Writer want;
    snap::encode_artifact(want, proto::analyze_flows(assembler.finish()));
    EXPECT_TRUE(std::ranges::equal(got.bytes(), want.bytes()))
        << "CS_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace cs::core
