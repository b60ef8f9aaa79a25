#include "internet/model.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/stats.h"

namespace cs::internet {
namespace {

class ModelFixture : public ::testing::Test {
 protected:
  ModelFixture()
      : ec2(cloud::Provider::make_ec2(3)),
        model(WideAreaModel::Config{.seed = 3}) {}

  const cloud::Region& region(std::string_view name) {
    return *ec2.region(name);
  }

  cloud::Provider ec2;
  WideAreaModel model;
};

TEST_F(ModelFixture, BaseRttScalesWithDistance) {
  const auto seattle = vantage_named("seattle");
  const double west = model.base_rtt_ms(seattle, region("ec2.us-west-2"));
  const double east = model.base_rtt_ms(seattle, region("ec2.us-east-1"));
  const double sydney =
      model.base_rtt_ms(seattle, region("ec2.ap-southeast-2"));
  EXPECT_LT(west, east);
  EXPECT_LT(east, sydney);
  // Seattle to Oregon is nearly next door.
  EXPECT_LT(west, 25.0);
  EXPECT_GT(sydney, 100.0);
}

TEST_F(ModelFixture, RttSamplesCenterNearBase) {
  const auto boulder = vantage_named("boulder");
  const auto& r = region("ec2.us-east-1");
  const double base = model.base_rtt_ms(boulder, r);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i)
    if (const auto s = model.rtt_sample(boulder, r, i * 600.0))
      samples.push_back(*s);
  ASSERT_GT(samples.size(), 400u);
  // Median within the congestion envelope of base.
  const double med = util::median(samples);
  EXPECT_GT(med, base * 0.7);
  EXPECT_LT(med, base * 2.0);
  for (const double s : samples) EXPECT_GT(s, 0.0);
}

TEST_F(ModelFixture, SomeProbesAreLost) {
  // A ping is lost with probability 0.01, so over n = 20,000 probes the
  // lost count is binomial with mean 200 and sigma = sqrt(n p (1 - p)) =
  // 14.1; the band is five sigma either side.
  const auto v = vantage_named("paris");
  constexpr int kProbes = 20000;
  int lost = 0;
  for (int i = 0; i < kProbes; ++i)
    if (!model.rtt_sample(v, region("ec2.eu-west-1"), i * 13.0)) ++lost;
  EXPECT_GT(lost, 130);
  EXPECT_LT(lost, 270);
}

TEST_F(ModelFixture, ThroughputInverseToRtt) {
  const auto seattle = vantage_named("seattle");
  std::vector<double> near_tput, far_tput;
  for (int i = 0; i < 200; ++i) {
    if (const auto t =
            model.throughput_sample(seattle, region("ec2.us-west-2"),
                                    i * 900.0))
      near_tput.push_back(*t);
    if (const auto t =
            model.throughput_sample(seattle, region("ec2.sa-east-1"),
                                    i * 900.0))
      far_tput.push_back(*t);
  }
  ASSERT_GT(near_tput.size(), 50u);
  ASSERT_GT(far_tput.size(), 50u);
  EXPECT_GT(util::mean(near_tput), util::mean(far_tput) * 2);
}

TEST_F(ModelFixture, ThroughputRespectsAccessCap) {
  const auto seattle = vantage_named("seattle");
  for (int i = 0; i < 100; ++i) {
    if (const auto t = model.throughput_sample(
            seattle, region("ec2.us-west-2"), i * 900.0)) {
      EXPECT_LE(*t, 12000.0 * 1.1);
    }
  }
}

TEST_F(ModelFixture, SameZoneRttIsHalfMillisecond) {
  const double rtt = model.zone_pair_base_ms("ec2.us-east-1", 1, 1);
  EXPECT_GT(rtt, 0.4);
  EXPECT_LT(rtt, 0.6);
}

TEST_F(ModelFixture, CrossZoneRttClearlyLarger) {
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      const double rtt = model.zone_pair_base_ms("ec2.us-east-1", a, b);
      if (a == b) {
        EXPECT_LT(rtt, 0.6);
      } else {
        // Most pairs sit in [1.3, 2.2]; a minority of physically close
        // pairs dip into [0.92, 1.17] (the latency method's confusers).
        EXPECT_GT(rtt, 0.85);
        EXPECT_LT(rtt, 2.4);
        // Symmetry.
        EXPECT_DOUBLE_EQ(rtt, model.zone_pair_base_ms("ec2.us-east-1", b, a));
      }
    }
}

TEST_F(ModelFixture, MinOfProbesRecoversZoneSignal) {
  // The cartography method takes min RTT over repeated probes; that min
  // must stay close to the zone-pair base despite noise spikes.
  auto probe = ec2.launch({.account = "probe", .region = "ec2.us-east-1",
                           .zone_label = 0});
  auto target = ec2.launch({.account = "t", .region = "ec2.us-east-1",
                            .zone_label = 0});
  const double base =
      model.zone_pair_base_ms("ec2.us-east-1", probe.zone, target.zone);
  double best = 1e9;
  for (int i = 0; i < 10; ++i)
    best = std::min(best,
                    model.instance_rtt_sample(ec2, probe, target, i * 5.0));
  EXPECT_NEAR(best, base, 0.25);
}

TEST_F(ModelFixture, CrossRegionInstanceRttIsGeographic) {
  auto a = ec2.launch({.account = "x", .region = "ec2.us-east-1"});
  auto b = ec2.launch({.account = "x", .region = "ec2.ap-northeast-1"});
  const double rtt = model.instance_rtt_sample(ec2, a, b, 0.0);
  EXPECT_GT(rtt, 80.0);  // Virginia-Tokyo is not a LAN
}

TEST_F(ModelFixture, UnresponsiveInstancesStableMinority) {
  auto ec2b = cloud::Provider::make_ec2(9);
  int unresponsive = 0;
  std::vector<const cloud::Instance*> insts;
  for (int i = 0; i < 1000; ++i)
    insts.push_back(&ec2b.launch({.account = "t", .region = "ec2.us-east-1"}));
  for (const auto* inst : insts) {
    if (model.instance_unresponsive(*inst)) ++unresponsive;
    // Determinism.
    EXPECT_EQ(model.instance_unresponsive(*inst),
              model.instance_unresponsive(*inst));
  }
  EXPECT_GT(unresponsive, 120);
  EXPECT_LT(unresponsive, 320);
}

TEST_F(ModelFixture, BestRegionCanFlapOverTime) {
  // Boulder sits between the US regions; congestion episodes must change
  // the winner at least occasionally over three days (Figure 11).
  const auto boulder = vantage_named("boulder");
  const std::vector<std::string> names = {"ec2.us-east-1", "ec2.us-west-1",
                                          "ec2.us-west-2"};
  std::set<std::string> winners;
  for (int round = 0; round < 288; ++round) {
    const double t = round * 900.0;
    double best = 1e18;
    std::string who;
    for (const auto& name : names) {
      const auto s = model.rtt_sample(boulder, region(name), t);
      if (s && *s < best) {
        best = *s;
        who = name;
      }
    }
    winners.insert(who);
  }
  EXPECT_GE(winners.size(), 2u);
}

}  // namespace
}  // namespace cs::internet
