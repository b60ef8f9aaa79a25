#include "analysis/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/cloud_usage.h"
#include "dns/server.h"
#include "dns/wordlist.h"
#include "exec/config.h"
#include "obs/metrics.h"

namespace cs::analysis {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldConfig config;
    config.domain_count = 250;
    world_ = new synth::World{config};
    DatasetBuilder builder{*world_, {.lookup_vantages = 3}};
    dataset_ = new AlexaDataset{builder.build()};
    ranges_ = new CloudRanges{world_->ec2(), world_->azure()};
  }
  static void TearDownTestSuite() {
    delete ranges_;
    delete dataset_;
    delete world_;
  }

  static synth::World* world_;
  static AlexaDataset* dataset_;
  static CloudRanges* ranges_;
};

synth::World* DatasetTest::world_ = nullptr;
AlexaDataset* DatasetTest::dataset_ = nullptr;
CloudRanges* DatasetTest::ranges_ = nullptr;

TEST_F(DatasetTest, EveryDomainProbed) {
  EXPECT_EQ(dataset_->domains.size(), world_->domains().size());
  EXPECT_GT(dataset_->dns_queries_spent, 10000u);
}

TEST_F(DatasetTest, NoFalsePositives) {
  // Every dataset subdomain must be genuinely cloud-using per truth.
  for (const auto& obs : dataset_->cloud_subdomains) {
    const auto* truth = world_->subdomain_truth(obs.name);
    ASSERT_NE(truth, nullptr) << obs.name.to_string();
    EXPECT_TRUE(truth->on_cloud) << obs.name.to_string();
  }
}

TEST_F(DatasetTest, RecallOnDiscoverableSubdomains) {
  std::set<std::string> found;
  for (const auto& obs : dataset_->cloud_subdomains)
    found.insert(obs.name.to_string());
  std::size_t discoverable = 0, hit = 0;
  for (const auto* truth : world_->cloud_subdomains()) {
    const auto* domain = world_->domain(truth->name.parent().to_string());
    const bool axfr = domain && domain->axfr_open;
    if (!truth->discoverable && !axfr) continue;
    ++discoverable;
    if (found.contains(truth->name.to_string())) ++hit;
  }
  ASSERT_GT(discoverable, 50u);
  EXPECT_GT(static_cast<double>(hit) / discoverable, 0.95);
}

TEST_F(DatasetTest, LowerBoundProperty) {
  // Undiscoverable names of closed domains must be absent.
  std::set<std::string> found;
  for (const auto& obs : dataset_->cloud_subdomains)
    found.insert(obs.name.to_string());
  for (const auto& domain : world_->domains()) {
    if (domain.axfr_open) continue;
    for (const auto& sub : domain.subdomains) {
      if (!sub.discoverable) {
        EXPECT_FALSE(found.contains(sub.name.to_string()))
            << sub.name.to_string();
      }
    }
  }
}

TEST_F(DatasetTest, AxfrFlagsMatchWorldTruth) {
  for (std::size_t i = 0; i < dataset_->domains.size(); ++i) {
    const auto& obs = dataset_->domains[i];
    const auto* truth = world_->domain(obs.name.to_string());
    ASSERT_NE(truth, nullptr);
    // AXFR succeeds iff the domain is open (and its servers reachable).
    EXPECT_EQ(obs.axfr_succeeded, truth->axfr_open) << obs.name.to_string();
  }
}

TEST_F(DatasetTest, AddressClassificationFlagsConsistent) {
  for (const auto& obs : dataset_->cloud_subdomains) {
    bool ec2 = false, azure = false, cdn = false, other = false;
    for (const auto addr : obs.addresses) {
      const auto c = ranges_->classify(addr);
      ec2 |= c.kind == IpClassification::Kind::kEc2;
      azure |= c.kind == IpClassification::Kind::kAzure;
      cdn |= c.kind == IpClassification::Kind::kCloudFront;
      other |= c.kind == IpClassification::Kind::kOther;
    }
    EXPECT_EQ(obs.has_ec2_address, ec2);
    EXPECT_EQ(obs.has_azure_address, azure);
    EXPECT_EQ(obs.has_cloudfront_address, cdn);
    EXPECT_EQ(obs.has_other_address, other);
  }
}

TEST_F(DatasetTest, DirectARecordMatchesVmTruth) {
  for (const auto& obs : dataset_->cloud_subdomains) {
    const auto* truth = world_->subdomain_truth(obs.name);
    if (!truth) continue;
    if (truth->front_end == synth::FrontEnd::kVm) {
      EXPECT_TRUE(obs.direct_a_record) << obs.name.to_string();
    }
    if (truth->front_end == synth::FrontEnd::kElb ||
        truth->front_end == synth::FrontEnd::kHeroku) {
      EXPECT_FALSE(obs.direct_a_record) << obs.name.to_string();
    }
  }
}

TEST_F(DatasetTest, NameServersCollected) {
  std::size_t with_ns = 0;
  for (const auto& obs : dataset_->cloud_subdomains) {
    if (obs.name_servers.empty()) continue;
    ++with_ns;
    for (const auto& [name, addrs] : obs.name_servers)
      EXPECT_FALSE(addrs.empty()) << name.to_string();
  }
  EXPECT_GT(with_ns, dataset_->cloud_subdomains.size() / 2);
}

TEST_F(DatasetTest, MarqueeSubdomainsAllFound) {
  std::map<std::string, std::size_t> per_domain;
  for (const auto& obs : dataset_->cloud_subdomains)
    ++per_domain[obs.domain.to_string()];
  EXPECT_EQ(per_domain["pinterest.com"], 18u);
  EXPECT_EQ(per_domain["msn.com"], 89u);
  EXPECT_EQ(per_domain["live.com"], 18u);
  EXPECT_EQ(per_domain["amazon.com"], 2u);
}

TEST_F(DatasetTest, CloudUsageBreakdownShape) {
  const auto report = analyze_cloud_usage(*dataset_);
  EXPECT_EQ(report.subdomains.total, dataset_->cloud_subdomains.size());
  EXPECT_GT(report.domains.ec2_total(), report.domains.azure_total());
  // The buckets partition the totals.
  EXPECT_EQ(report.domains.ec2_only + report.domains.ec2_plus_other +
                report.domains.azure_only + report.domains.azure_plus_other +
                report.domains.ec2_plus_azure,
            report.domains.total);
  // Rank skew toward the top (paper: 42.3% vs 16.2%).
  EXPECT_GT(report.top_quartile_fraction, report.bottom_quartile_fraction);
}

TEST_F(DatasetTest, TopDomainsAreRankSorted) {
  const auto report = analyze_cloud_usage(*dataset_);
  ASSERT_FALSE(report.top_ec2_domains.empty());
  for (std::size_t i = 1; i < report.top_ec2_domains.size(); ++i)
    EXPECT_LT(report.top_ec2_domains[i - 1].rank,
              report.top_ec2_domains[i].rank);
  // Azure list headed by live.com (rank 7).
  ASSERT_FALSE(report.top_azure_domains.empty());
  EXPECT_EQ(report.top_azure_domains[0].domain, "live.com");
}

TEST_F(DatasetTest, WwwIsTheTopPrefix) {
  const auto report = analyze_cloud_usage(*dataset_);
  ASSERT_FALSE(report.top_prefixes.empty());
  EXPECT_EQ(report.top_prefixes[0].first, "www");
}

/// Field-by-field dataset equality (the structs carry no operator==; the
/// snapshot-byte comparison lives in snap_codec_test, which links snap).
void expect_same_dataset(const AlexaDataset& a, const AlexaDataset& b) {
  EXPECT_EQ(a.dns_queries_spent, b.dns_queries_spent);
  ASSERT_EQ(a.domains.size(), b.domains.size());
  ASSERT_EQ(a.cloud_subdomains.size(), b.cloud_subdomains.size());
  for (std::size_t i = 0; i < a.domains.size(); ++i) {
    const auto& da = a.domains[i];
    const auto& db = b.domains[i];
    EXPECT_EQ(da.name, db.name) << i;
    EXPECT_EQ(da.rank, db.rank) << i;
    EXPECT_EQ(da.axfr_succeeded, db.axfr_succeeded) << i;
    EXPECT_EQ(da.subdomains_probed, db.subdomains_probed) << i;
    EXPECT_EQ(da.cloud_subdomains, db.cloud_subdomains) << i;
    EXPECT_EQ(da.other_only_subdomains, db.other_only_subdomains) << i;
    EXPECT_EQ(da.unresolved_subdomains, db.unresolved_subdomains) << i;
    EXPECT_TRUE(da.failed_lookups == db.failed_lookups) << i;
  }
  for (std::size_t i = 0; i < a.cloud_subdomains.size(); ++i) {
    const auto& sa = a.cloud_subdomains[i];
    const auto& sb = b.cloud_subdomains[i];
    EXPECT_EQ(sa.name, sb.name) << i;
    EXPECT_EQ(sa.domain, sb.domain) << i;
    EXPECT_EQ(sa.addresses, sb.addresses) << i;
    EXPECT_EQ(sa.cnames, sb.cnames) << i;
    EXPECT_EQ(sa.direct_a_record, sb.direct_a_record) << i;
    EXPECT_EQ(sa.has_other_address, sb.has_other_address) << i;
    EXPECT_EQ(sa.has_ec2_address, sb.has_ec2_address) << i;
    EXPECT_EQ(sa.has_azure_address, sb.has_azure_address) << i;
    EXPECT_EQ(sa.has_cloudfront_address, sb.has_cloudfront_address) << i;
    EXPECT_EQ(sa.name_servers, sb.name_servers) << i;
  }
}

// Chunking is a memory knob, never a result knob: per-domain probes are
// independent and merge in rank order, so any chunk size reproduces the
// single-chunk dataset exactly.
TEST_F(DatasetTest, ChunkSizeNeverChangesTheDataset) {
  DatasetBuilder builder{*world_, {.lookup_vantages = 3, .chunk_domains = 17}};
  EXPECT_EQ(builder.chunk_domains(), 17u);
  expect_same_dataset(builder.build(), *dataset_);
}

TEST_F(DatasetTest, OnChunkReportsMonotoneCheckpoints) {
  std::vector<std::size_t> boundaries;
  DatasetBuilder::Options options;
  options.lookup_vantages = 3;
  options.chunk_domains = 100;
  options.on_chunk = [&](const AlexaDataset& partial,
                         std::size_t next_domain) {
    // The partial holds exactly the domains probed so far.
    EXPECT_EQ(partial.domains.size(), next_domain);
    boundaries.push_back(next_domain);
  };
  DatasetBuilder builder{*world_, options};
  const auto dataset = builder.build();
  expect_same_dataset(dataset, *dataset_);
  ASSERT_GE(boundaries.size(), 2u);
  for (std::size_t i = 1; i < boundaries.size(); ++i)
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
  // Completion itself is never a checkpoint — the stage snapshot covers it.
  EXPECT_LT(boundaries.back(), dataset.domains.size());
}

// Crash-resume: continuing from a mid-build checkpoint must land on the
// same dataset as an uninterrupted build.
TEST_F(DatasetTest, ResumeFromPartialMatchesFullBuild) {
  DatasetBuilder::Options options;
  options.lookup_vantages = 3;
  options.chunk_domains = 100;
  DatasetBuilder::Resume checkpoint;
  options.on_chunk = [&](const AlexaDataset& partial,
                         std::size_t next_domain) {
    if (checkpoint.next_domain == 0) {  // keep the first checkpoint only
      checkpoint.dataset = partial;
      checkpoint.next_domain = next_domain;
    }
  };
  DatasetBuilder{*world_, options}.build();
  ASSERT_GT(checkpoint.next_domain, 0u);
  ASSERT_LT(checkpoint.next_domain, world_->domains().size());

  DatasetBuilder resumed{*world_, {.lookup_vantages = 3}};
  expect_same_dataset(resumed.build(std::move(checkpoint)), *dataset_);
}

// Traffic Manager picks a member per client network, so every vantage
// must ask for the profile afresh. Traffic Manager is rare (1.5% of Azure
// subdomains); seed 127's 250-domain world holds a two-member profile,
// m.w16site.com. With as many vantages as members, the lookups must see
// every member the world deployed: a Traffic Manager subdomain's front
// IPs are exactly its members' addresses.
TEST(DatasetTrafficManagerTest, LookupsSeeEveryMember) {
  synth::WorldConfig config;
  config.seed = 127;
  config.domain_count = 250;
  const synth::World world{config};
  constexpr std::size_t kVantages = 2;
  const auto dataset =
      DatasetBuilder{world, {.lookup_vantages = kVantages,
                             .collect_name_servers = false}}
          .build();
  std::size_t multi_member = 0;
  for (const auto& obs : dataset.cloud_subdomains) {
    const auto* truth = world.subdomain_truth(obs.name);
    ASSERT_NE(truth, nullptr);
    if (truth->front_end != synth::FrontEnd::kTrafficManager) continue;
    const auto& members = truth->front_ips;
    ASSERT_FALSE(members.empty()) << obs.name.to_string();
    ASSERT_LE(members.size(), kVantages) << obs.name.to_string();
    if (members.size() > 1) ++multi_member;
    for (const auto member : members) {
      EXPECT_NE(
          std::find(obs.addresses.begin(), obs.addresses.end(), member),
          obs.addresses.end())
          << obs.name.to_string() << " never saw " << member.to_string();
    }
  }
  EXPECT_GT(multi_member, 0u);
}

// The vantage-loop counters count work, not time: the same at any thread
// count, and one lookup per (discovered subdomain, vantage).
TEST_F(DatasetTest, VantageCountersAreIndependentOfThreadCount) {
  const auto tally = [&](unsigned threads) {
    exec::ScopedThreads guard{threads};
    auto& registry = obs::MetricsRegistry::instance();
    const auto before = registry.snapshot();
    DatasetBuilder{*world_, {.lookup_vantages = 3}}.build();
    const auto after = registry.snapshot();
    const auto delta = [&](std::string_view name) {
      return after.counter(name) - before.counter(name);
    };
    return std::pair{delta("analysis.dataset.vantage_lookups"),
                     delta("analysis.dataset.vantage_exchanges")};
  };
  const auto one = tally(1);
  const auto eight = tally(8);
  EXPECT_EQ(one, eight);
  std::uint64_t discovered = 0;
  for (const auto& domain : dataset_->domains)
    discovered += domain.subdomains_probed;
  EXPECT_EQ(one.first, 3 * discovered);
  EXPECT_GT(one.second, one.first);  // first vantages walk from the root
}

// The vantage loop's exact cost on a miniature tree:
//   root (198.41.0.4) -> com -> example.com, holding www (A) and ext
//   (CNAME to cdn.other.net, a zone under net).
class VantageLookupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using dns::Name;
    using dns::ResourceRecord;
    const auto zone_at = [&](net::Ipv4 address, const char* origin) {
      auto server = std::make_shared<dns::AuthoritativeServer>();
      dns::SoaRecord soa;
      soa.mname = soa.rname = Name::must_parse(origin);
      network_.attach(address, server);
      return &server->add_zone(Name::must_parse(origin), soa);
    };
    const auto delegate = [](dns::Zone* parent, const char* child,
                             const char* ns, net::Ipv4 glue) {
      parent->add(ResourceRecord::ns(Name::must_parse(child),
                                     Name::must_parse(ns)));
      parent->add(ResourceRecord::a(Name::must_parse(ns), glue));
    };
    const net::Ipv4 com_ip{192, 5, 6, 30}, net_ip{192, 5, 6, 31};
    const net::Ipv4 example_ip{192, 0, 2, 53}, other_ip{192, 0, 2, 54};
    auto* root = zone_at(kRoot, ".");
    delegate(root, "com", "a.gtld.net", com_ip);
    delegate(root, "net", "b.gtld.net", net_ip);
    delegate(zone_at(com_ip, "com"), "example.com", "ns1.example.com",
             example_ip);
    delegate(zone_at(net_ip, "net"), "other.net", "ns1.other.net", other_ip);
    auto* example = zone_at(example_ip, "example.com");
    example->add(ResourceRecord::a(Name::must_parse("www.example.com"),
                                   net::Ipv4{203, 0, 113, 80}));
    example->add(ResourceRecord::cname(Name::must_parse("ext.example.com"),
                                       Name::must_parse("cdn.other.net")));
    zone_at(other_ip, "other.net")
        ->add(ResourceRecord::a(Name::must_parse("cdn.other.net"),
                                net::Ipv4{198, 18, 0, 1}));
  }

  /// Resolves `name` from the first `vantages` PlanetLab nodes with a
  /// fresh resolver and returns the upstream queries it spent.
  std::uint64_t cost(const char* name, std::size_t vantages) {
    dns::Resolver resolver{network_, {.root_servers = {kRoot}}};
    const auto seen =
        lookup_from_vantages(resolver, dns::Name::must_parse(name),
                             internet::planetlab_vantages(vantages));
    EXPECT_EQ(seen.ok, vantages);
    EXPECT_EQ(seen.addresses.size(), 1u);
    EXPECT_EQ(seen.exchanges, resolver.upstream_queries());
    return resolver.upstream_queries();
  }

  static constexpr net::Ipv4 kRoot{198, 41, 0, 4};
  dns::SimulatedDnsNetwork network_;
};

// The first vantage walks root -> com -> example.com; every later one
// asks example.com alone, because the cuts outlive the answer flush.
TEST_F(VantageLookupTest, LaterVantagesAskOnlyTheZone) {
  EXPECT_EQ(cost("www.example.com", 1), 3u);
  EXPECT_EQ(cost("www.example.com", 2), 4u);
  EXPECT_EQ(cost("www.example.com", 8), 10u);
}

// A cross-zone CNAME costs two walks on the first vantage (root, com,
// example.com; root, net, other.net) and one query per zone after it.
TEST_F(VantageLookupTest, LaterVantagesAskEachZoneOnTheChainOnce) {
  EXPECT_EQ(cost("ext.example.com", 1), 6u);
  EXPECT_EQ(cost("ext.example.com", 8), 20u);
}

}  // namespace
}  // namespace cs::analysis
