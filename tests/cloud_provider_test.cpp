#include "cloud/provider.h"

#include <gtest/gtest.h>

#include <set>

namespace cs::cloud {
namespace {

TEST(Provider, Ec2HasEightRegions) {
  const auto ec2 = Provider::make_ec2(1);
  EXPECT_EQ(ec2.regions().size(), 8u);
  EXPECT_EQ(ec2.kind(), ProviderKind::kEc2);
  ASSERT_NE(ec2.region("ec2.us-east-1"), nullptr);
  EXPECT_EQ(ec2.region("ec2.us-east-1")->zone_count, 3);
  EXPECT_EQ(ec2.region("nope"), nullptr);
}

TEST(Provider, AzureRegionsAreSingleZone) {
  const auto azure = Provider::make_azure(1);
  EXPECT_EQ(azure.regions().size(), 8u);
  for (const auto& r : azure.regions()) EXPECT_EQ(r.zone_count, 1);
}

TEST(Provider, PublishedRangesResolveRegions) {
  const auto ec2 = Provider::make_ec2(1);
  EXPECT_EQ(ec2.region_of(net::Ipv4(54, 1, 2, 3)).value_or(""),
            "ec2.us-east-1");
  EXPECT_EQ(ec2.region_of(net::Ipv4(23, 21, 0, 5)).value_or(""),
            "ec2.us-east-1");
  EXPECT_EQ(ec2.region_of(net::Ipv4(54, 33, 0, 1)).value_or(""),
            "ec2.eu-west-1");
  EXPECT_FALSE(ec2.region_of(net::Ipv4(8, 8, 8, 8)));
  // CDN space is NOT in the EC2 ranges, matching the paper.
  EXPECT_FALSE(ec2.region_of(net::Ipv4(205, 251, 192, 20)));
}

TEST(Provider, RegionRangesAreDisjointAcrossProviders) {
  const auto ec2 = Provider::make_ec2(1);
  const auto azure = Provider::make_azure(1);
  for (const auto& region : azure.regions())
    for (const auto& block : region.public_blocks)
      EXPECT_FALSE(ec2.region_of(block.first())) << region.name;
}

TEST(Provider, LaunchAssignsAddressesInRegion) {
  auto ec2 = Provider::make_ec2(7);
  const auto& inst = ec2.launch({.account = "acct-1",
                                 .region = "ec2.eu-west-1",
                                 .type = "m1.medium"});
  EXPECT_EQ(ec2.region_of(inst.public_ip).value_or(""), "ec2.eu-west-1");
  EXPECT_EQ(inst.internal_ip.octet(0), 10);
  EXPECT_EQ(inst.region, "ec2.eu-west-1");
  EXPECT_GE(inst.zone, 0);
  EXPECT_LT(inst.zone, 3);
}

TEST(Provider, LaunchUnknownRegionThrows) {
  auto ec2 = Provider::make_ec2(7);
  EXPECT_THROW(ec2.launch({.account = "a", .region = "ec2.moon-1"}),
               std::invalid_argument);
}

TEST(Provider, LaunchBadZoneLabelThrows) {
  auto ec2 = Provider::make_ec2(7);
  EXPECT_THROW(
      ec2.launch({.account = "a", .region = "ec2.us-east-1", .zone_label = 9}),
      std::invalid_argument);
}

TEST(Provider, UniqueAddressesAcrossManyLaunches) {
  auto ec2 = Provider::make_ec2(7);
  std::set<std::uint32_t> publics, internals;
  for (int i = 0; i < 2000; ++i) {
    const auto& inst = ec2.launch(
        {.account = "acct", .region = "ec2.us-east-1"});
    EXPECT_TRUE(publics.insert(inst.public_ip.value()).second);
    EXPECT_TRUE(internals.insert(inst.internal_ip.value()).second);
  }
}

TEST(Provider, LookupByAddress) {
  auto ec2 = Provider::make_ec2(7);
  const auto& inst = ec2.launch({.account = "a", .region = "ec2.us-west-2"});
  ASSERT_NE(ec2.find_by_public_ip(inst.public_ip), nullptr);
  EXPECT_EQ(ec2.find_by_public_ip(inst.public_ip)->id, inst.id);
  ASSERT_NE(ec2.find_by_internal_ip(inst.internal_ip), nullptr);
  EXPECT_EQ(ec2.internal_ip_of(inst.public_ip).value_or(net::Ipv4{}),
            inst.internal_ip);
  EXPECT_EQ(ec2.find_by_public_ip(net::Ipv4(1, 1, 1, 1)), nullptr);
}

TEST(Provider, InternalSlash16IsZonePure) {
  auto ec2 = Provider::make_ec2(7);
  // Ground-truth invariant exploited by the proximity method: all
  // instances inside one /16 share a physical zone.
  std::map<int, int> block_zone;
  for (int i = 0; i < 3000; ++i) {
    const auto& inst = ec2.launch(
        {.account = "acct", .region = "ec2.us-east-1"});
    const int block = inst.internal_ip.octet(1);
    const auto [it, fresh] = block_zone.emplace(block, inst.zone);
    if (!fresh) {
      EXPECT_EQ(it->second, inst.zone) << "block " << block;
    }
    EXPECT_EQ(ec2.zone_of_internal_block(inst.internal_ip).value_or(-1),
              inst.zone);
  }
  // With 3 zones over 32 /16s, many blocks should have been touched.
  EXPECT_GE(block_zone.size(), 10u);
}

TEST(Provider, ZoneGroundTruthByPublicIp) {
  auto ec2 = Provider::make_ec2(7);
  const auto& inst = ec2.launch({.account = "a", .region = "ec2.us-east-1"});
  EXPECT_EQ(ec2.zone_of_public_ip(inst.public_ip).value_or(-1), inst.zone);
  EXPECT_FALSE(ec2.zone_of_public_ip(net::Ipv4(9, 9, 9, 9)));
}

TEST(Provider, ZoneLabelsPermutePerAccount) {
  auto ec2 = Provider::make_ec2(7);
  // Labels must be a bijection per account.
  for (const auto* account : {"alice", "bob", "carol"}) {
    std::set<int> zones;
    for (int label = 0; label < 3; ++label)
      zones.insert(ec2.physical_zone(account, "ec2.us-east-1", label));
    EXPECT_EQ(zones.size(), 3u) << account;
  }
  // Stability.
  EXPECT_EQ(ec2.physical_zone("alice", "ec2.us-east-1", 0),
            ec2.physical_zone("alice", "ec2.us-east-1", 0));
  // Some pair of accounts must disagree on a label (with 3 accounts and 6
  // permutations, identical mappings for all would be suspicious but
  // possible; use more accounts to make this overwhelmingly likely).
  bool differs = false;
  for (int i = 0; i < 20 && !differs; ++i) {
    const std::string account = "acct-" + std::to_string(i);
    for (int label = 0; label < 3; ++label)
      differs |= ec2.physical_zone(account, "ec2.us-east-1", label) !=
                 ec2.physical_zone("alice", "ec2.us-east-1", label);
  }
  EXPECT_TRUE(differs);
}

TEST(Provider, ExplicitZoneLabelHonored) {
  auto ec2 = Provider::make_ec2(7);
  const int physical = ec2.physical_zone("dave", "ec2.us-west-1", 1);
  const auto& inst = ec2.launch(
      {.account = "dave", .region = "ec2.us-west-1", .zone_label = 1});
  EXPECT_EQ(inst.zone, physical);
}

TEST(Provider, RoundRobinSpreadsZones) {
  auto ec2 = Provider::make_ec2(7);
  std::map<int, int> counts;
  for (int i = 0; i < 30; ++i)
    ++counts[ec2.launch({.account = "a", .region = "ec2.us-east-1"}).zone];
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [zone, count] : counts) EXPECT_EQ(count, 10);
}

TEST(Provider, CdnAllocatorStaysInBlock) {
  auto ec2 = Provider::make_ec2(7);
  for (int i = 0; i < 100; ++i) {
    const auto ip = ec2.allocate_cdn_ip();
    EXPECT_TRUE(ec2.cdn_block().contains(ip));
  }
}

TEST(Provider, DeterministicAcrossConstructions) {
  auto a = Provider::make_ec2(42);
  auto b = Provider::make_ec2(42);
  for (int i = 0; i < 50; ++i) {
    const auto& ia = a.launch({.account = "x", .region = "ec2.us-east-1"});
    const auto& ib = b.launch({.account = "x", .region = "ec2.us-east-1"});
    EXPECT_EQ(ia.public_ip, ib.public_ip);
    EXPECT_EQ(ia.internal_ip, ib.internal_ip);
    EXPECT_EQ(ia.zone, ib.zone);
  }
}

TEST(Provider, CopyIsAnIndependentValue) {
  auto original = Provider::make_ec2(42);
  const auto& before =
      original.launch({.account = "x", .region = "ec2.us-east-1"});
  const auto before_ip = before.public_ip;

  Provider copy = original;
  // Lookups in the copy resolve to the copy's own instances.
  const auto* found = copy.find_by_public_ip(before_ip);
  ASSERT_NE(found, nullptr);
  EXPECT_NE(found, &before);
  EXPECT_EQ(found, &copy.instances().front());
  EXPECT_EQ(copy.region_of(before_ip).value_or(""), "ec2.us-east-1");
  EXPECT_EQ(&copy.published_ranges(), &original.published_ranges());

  // The copy allocates exactly what the original would have next, and
  // launching into it leaves the original untouched.
  const auto& in_copy =
      copy.launch({.account = "y", .region = "ec2.us-east-1"});
  EXPECT_EQ(original.instance_count(), 1u);
  EXPECT_EQ(original.find_by_public_ip(in_copy.public_ip), nullptr);
  const auto& in_original =
      original.launch({.account = "y", .region = "ec2.us-east-1"});
  EXPECT_EQ(in_original.public_ip, in_copy.public_ip);
  EXPECT_EQ(in_original.internal_ip, in_copy.internal_ip);
  EXPECT_EQ(in_original.id, in_copy.id);
  EXPECT_EQ(copy.find_by_internal_ip(in_copy.internal_ip), &in_copy);
}

}  // namespace
}  // namespace cs::cloud
