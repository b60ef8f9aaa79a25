#include "dns/resolver.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/metrics.h"

namespace cs::dns {
namespace {

SoaRecord soa_of(std::string_view mname) {
  SoaRecord soa;
  soa.mname = Name::must_parse(mname);
  soa.rname = Name::must_parse(mname);
  return soa;
}

/// Builds a miniature delegation tree:
///   root (198.41.0.4) -> com (192.5.6.30) -> example.com (192.0.2.53)
/// with example.com hosting www (A), m (CNAME www), ext (CNAME to
/// cdn.other.net, served by a sibling tree under net).
class ResolverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto root = std::make_shared<AuthoritativeServer>();
    auto& root_zone = root->add_zone(Name{}, soa_of("a.root"));
    root_zone.add(ResourceRecord::ns(Name::must_parse("com"),
                                     Name::must_parse("a.gtld.net")));
    root_zone.add(ResourceRecord::ns(Name::must_parse("net"),
                                     Name::must_parse("b.gtld.net")));
    // Glue for the TLD servers.
    root_zone.add(ResourceRecord::a(Name::must_parse("a.gtld.net"),
                                    net::Ipv4(192, 5, 6, 30)));
    root_zone.add(ResourceRecord::a(Name::must_parse("b.gtld.net"),
                                    net::Ipv4(192, 5, 6, 31)));

    auto com = std::make_shared<AuthoritativeServer>();
    auto& com_zone = com->add_zone(Name::must_parse("com"), soa_of("a.gtld.net"));
    com_zone.add(ResourceRecord::ns(Name::must_parse("example.com"),
                                    Name::must_parse("ns1.example.com")));
    com_zone.add(ResourceRecord::a(Name::must_parse("ns1.example.com"),
                                   net::Ipv4(192, 0, 2, 53)));
    // A glueless delegation: gluless.com's NS lives under net.
    com_zone.add(ResourceRecord::ns(Name::must_parse("glueless.com"),
                                    Name::must_parse("ns.hosting.net")));

    auto net = std::make_shared<AuthoritativeServer>();
    auto& net_zone = net->add_zone(Name::must_parse("net"), soa_of("b.gtld.net"));
    net_zone.add(ResourceRecord::ns(Name::must_parse("other.net"),
                                    Name::must_parse("ns1.other.net")));
    net_zone.add(ResourceRecord::a(Name::must_parse("ns1.other.net"),
                                   net::Ipv4(192, 0, 2, 54)));
    net_zone.add(ResourceRecord::ns(Name::must_parse("hosting.net"),
                                    Name::must_parse("ns1.hosting.net")));
    net_zone.add(ResourceRecord::a(Name::must_parse("ns1.hosting.net"),
                                   net::Ipv4(192, 0, 2, 55)));

    auto example = std::make_shared<AuthoritativeServer>();
    auto& ex_zone = example->add_zone(Name::must_parse("example.com"),
                                      soa_of("ns1.example.com"));
    ex_zone.add(ResourceRecord::ns(Name::must_parse("example.com"),
                                   Name::must_parse("ns1.example.com")));
    ex_zone.add(ResourceRecord::a(Name::must_parse("ns1.example.com"),
                                  net::Ipv4(192, 0, 2, 53)));
    ex_zone.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                                  net::Ipv4(203, 0, 113, 80), 60));
    ex_zone.add(ResourceRecord::cname(Name::must_parse("m.example.com"),
                                      Name::must_parse("www.example.com")));
    ex_zone.add(ResourceRecord::cname(Name::must_parse("ext.example.com"),
                                      Name::must_parse("cdn.other.net")));

    auto other = std::make_shared<AuthoritativeServer>();
    auto& other_zone = other->add_zone(Name::must_parse("other.net"),
                                       soa_of("ns1.other.net"));
    other_zone.add(ResourceRecord::a(Name::must_parse("cdn.other.net"),
                                     net::Ipv4(198, 18, 0, 1)));

    auto hosting = std::make_shared<AuthoritativeServer>();
    auto& hosting_zone = hosting->add_zone(Name::must_parse("hosting.net"),
                                           soa_of("ns1.hosting.net"));
    hosting_zone.add(ResourceRecord::a(Name::must_parse("ns.hosting.net"),
                                       net::Ipv4(192, 0, 2, 56)));

    auto glueless = std::make_shared<AuthoritativeServer>();
    auto& gl_zone = glueless->add_zone(Name::must_parse("glueless.com"),
                                       soa_of("ns.hosting.net"));
    gl_zone.add(ResourceRecord::a(Name::must_parse("www.glueless.com"),
                                  net::Ipv4(198, 18, 0, 2)));

    example->set_axfr_policy([](net::Ipv4 client, const Name&) {
      return client == net::Ipv4(192, 0, 2, 1);
    });

    network.attach(net::Ipv4(198, 41, 0, 4), root);
    network.attach(net::Ipv4(192, 5, 6, 30), com);
    network.attach(net::Ipv4(192, 5, 6, 31), net);
    network.attach(net::Ipv4(192, 0, 2, 53), example);
    network.attach(net::Ipv4(192, 0, 2, 54), other);
    network.attach(net::Ipv4(192, 0, 2, 55), hosting);
    network.attach(net::Ipv4(192, 0, 2, 56), glueless);
  }

  Resolver::Options options() {
    Resolver::Options o;
    o.root_servers = {net::Ipv4(198, 41, 0, 4)};
    o.client_address = net::Ipv4(192, 0, 2, 1);
    return o;
  }

  /// Options whose only root is an address with no server attached.
  Resolver::Options dead_root_options() {
    auto o = options();
    o.root_servers = {kUnattachedRoot};
    return o;
  }

  static constexpr net::Ipv4 kUnattachedRoot{198, 41, 0, 99};

  SimulatedDnsNetwork network;
};

TEST_F(ResolverFixture, ResolvesThroughDelegation) {
  Resolver resolver{network, options()};
  const auto r = resolver.resolve(Name::must_parse("www.example.com"),
                                  RrType::kA);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.addresses().size(), 1u);
  EXPECT_EQ(r.addresses()[0], net::Ipv4(203, 0, 113, 80));
}

TEST_F(ResolverFixture, ChasesCrossZoneCname) {
  Resolver resolver{network, options()};
  const auto r = resolver.resolve(Name::must_parse("ext.example.com"),
                                  RrType::kA);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.cname_chain().size(), 1u);
  EXPECT_EQ(r.cname_chain()[0].to_string(), "cdn.other.net");
  ASSERT_EQ(r.addresses().size(), 1u);
  EXPECT_EQ(r.addresses()[0], net::Ipv4(198, 18, 0, 1));
}

TEST_F(ResolverFixture, InZoneCnameChainInAnswer) {
  Resolver resolver{network, options()};
  const auto r =
      resolver.resolve(Name::must_parse("m.example.com"), RrType::kA);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cname_chain().size(), 1u);
  EXPECT_EQ(r.addresses().size(), 1u);
}

TEST_F(ResolverFixture, NxDomainPropagates) {
  Resolver resolver{network, options()};
  const auto r = resolver.resolve(Name::must_parse("nosuch.example.com"),
                                  RrType::kA);
  EXPECT_EQ(r.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(r.addresses().empty());
}

TEST_F(ResolverFixture, GluelessDelegationResolved) {
  Resolver resolver{network, options()};
  const auto r = resolver.resolve(Name::must_parse("www.glueless.com"),
                                  RrType::kA);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.addresses().size(), 1u);
  EXPECT_EQ(r.addresses()[0], net::Ipv4(198, 18, 0, 2));
}

TEST_F(ResolverFixture, CacheCutsUpstreamQueries) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  const auto after_first = resolver.upstream_queries();
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), after_first);
  EXPECT_GE(resolver.cache_hits(), 1u);
}

// Every tally reaches its shared counter as it happens: a counter read
// while the resolver lives already holds its work. The dead first root
// makes the walk from the roots time out once and retry once.
TEST_F(ResolverFixture, CountersAreLiveWhileTheResolverLives) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  auto opts = options();
  opts.root_servers = {kUnattachedRoot, net::Ipv4(198, 41, 0, 4)};
  Resolver resolver{network, opts};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  resolver.resolve(Name::must_parse("nosuch.example.com"), RrType::kA);
  const auto after = registry.snapshot();
  const auto delta = [&](std::string_view name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(resolver.upstream_queries(), 5u);
  EXPECT_EQ(resolver.cache_hits(), 1u);
  EXPECT_EQ(resolver.delegation_hits(), 1u);
  EXPECT_EQ(resolver.retries(), 1u);
  EXPECT_EQ(resolver.timeouts(), 1u);
  EXPECT_EQ(delta("dns.resolver.upstream_queries"),
            resolver.upstream_queries());
  EXPECT_EQ(delta("dns.resolver.cache_hits"), resolver.cache_hits());
  EXPECT_EQ(delta("dns.resolver.delegation_hits"),
            resolver.delegation_hits());
  EXPECT_EQ(delta("dns.resolver.retries"), resolver.retries());
  EXPECT_EQ(delta("dns.resolver.timeouts"), resolver.timeouts());
}

TEST_F(ResolverFixture, FlushCacheForcesRequery) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  const auto after_first = resolver.upstream_queries();
  resolver.flush_cache();
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

TEST_F(ResolverFixture, TtlExpiryForcesRequery) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  const auto after_first = resolver.upstream_queries();
  resolver.advance_time(61);  // www TTL is 60
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

// Zone-cut cache. www.example.com walks root -> com -> example.com (3
// queries) and leaves cuts for com and example.com behind; the NS TTL is
// 3600 s, capped at 300 s like every cache entry.

TEST_F(ResolverFixture, SecondNameInReachedZoneCostsOneQuery) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 3u);
  EXPECT_EQ(resolver.delegation_hits(), 0u);
  const auto r =
      resolver.resolve(Name::must_parse("nosuch.example.com"), RrType::kA);
  EXPECT_EQ(r.rcode, Rcode::kNxDomain);
  EXPECT_EQ(resolver.upstream_queries(), 4u);
  EXPECT_EQ(resolver.delegation_hits(), 1u);
  // A sibling zone under the cached com cut skips the root; its glueless
  // name server under net still walks from the root: com, root, net,
  // hosting.net, then glueless.com itself.
  EXPECT_TRUE(
      resolver.resolve(Name::must_parse("www.glueless.com"), RrType::kA).ok());
  EXPECT_EQ(resolver.upstream_queries(), 9u);
  EXPECT_EQ(resolver.delegation_hits(), 2u);
}

TEST_F(ResolverFixture, FlushCacheDropsZoneCuts) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  resolver.flush_cache();
  resolver.resolve(Name::must_parse("ns1.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 6u);
  EXPECT_EQ(resolver.delegation_hits(), 0u);
}

TEST_F(ResolverFixture, FlushAnswersKeepsZoneCuts) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  resolver.flush_answers();
  EXPECT_TRUE(
      resolver.resolve(Name::must_parse("www.example.com"), RrType::kA).ok());
  EXPECT_EQ(resolver.upstream_queries(), 4u);
  EXPECT_EQ(resolver.cache_hits(), 0u);
  EXPECT_EQ(resolver.delegation_hits(), 1u);
}

TEST_F(ResolverFixture, ZoneCutExpiresWithNsTtl) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  resolver.advance_time(299);
  resolver.resolve(Name::must_parse("ns1.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 4u);
  resolver.advance_time(2);  // 301 s: past the capped NS TTL
  resolver.resolve(Name::must_parse("nosuch.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 7u);
  EXPECT_EQ(resolver.delegation_hits(), 1u);
}

TEST_F(ResolverFixture, CopiedResolverKeepsZoneCuts) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  Resolver copy{resolver};
  copy.resolve(Name::must_parse("ns1.example.com"), RrType::kA);
  EXPECT_EQ(copy.upstream_queries(), 4u);
  EXPECT_EQ(copy.delegation_hits(), 1u);
  Resolver moved{std::move(copy)};
  moved.resolve(Name::must_parse("nosuch.example.com"), RrType::kA);
  EXPECT_EQ(moved.upstream_queries(), 5u);
  EXPECT_EQ(moved.delegation_hits(), 2u);
}

// A brute-force probe caches no answer for the candidate itself, whatever
// the outcome; what the walk learns on the way is cached as by resolve().

TEST_F(ResolverFixture, ProbeLeavesNoAnswerBehind) {
  Resolver resolver{network, options()};
  resolver.resolve(Name::must_parse("www.example.com"), RrType::kA);
  ASSERT_EQ(resolver.upstream_queries(), 3u);
  const auto missing = Name::must_parse("nosuch.example.com");
  EXPECT_EQ(resolver.probe(missing, RrType::kA).rcode, Rcode::kNxDomain);
  EXPECT_EQ(resolver.probe(missing, RrType::kA).rcode, Rcode::kNxDomain);
  EXPECT_EQ(resolver.upstream_queries(), 5u);
  EXPECT_EQ(resolver.cache_hits(), 0u);
  // resolve() of the same name still caches: one query, then one hit.
  EXPECT_EQ(resolver.resolve(missing, RrType::kA).rcode, Rcode::kNxDomain);
  EXPECT_EQ(resolver.resolve(missing, RrType::kA).rcode, Rcode::kNxDomain);
  EXPECT_EQ(resolver.upstream_queries(), 6u);
  EXPECT_EQ(resolver.cache_hits(), 1u);
}

TEST_F(ResolverFixture, ProbeOfAnExistingNameLeavesNoAnswerEither) {
  Resolver resolver{network, options()};
  const auto www = Name::must_parse("www.example.com");
  EXPECT_EQ(resolver.probe(www, RrType::kA).addresses().size(), 1u);
  EXPECT_EQ(resolver.probe(www, RrType::kA).addresses().size(), 1u);
  EXPECT_EQ(resolver.upstream_queries(), 4u);
  EXPECT_EQ(resolver.cache_hits(), 0u);
}

TEST_F(ResolverFixture, ProbeCachesTheCutItFollows) {
  Resolver resolver{network, options()};
  resolver.probe(Name::must_parse("nosuch.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 3u);
  resolver.probe(Name::must_parse("absent.example.com"), RrType::kA);
  EXPECT_EQ(resolver.upstream_queries(), 4u);
  EXPECT_EQ(resolver.delegation_hits(), 1u);
}

TEST_F(ResolverFixture, ProbeCachesTheCnameTargetItChases) {
  Resolver resolver{network, options()};
  const auto r = resolver.probe(Name::must_parse("ext.example.com"),
                                RrType::kA);
  ASSERT_EQ(r.addresses().size(), 1u);
  const auto queries = resolver.upstream_queries();
  EXPECT_TRUE(
      resolver.resolve(Name::must_parse("cdn.other.net"), RrType::kA).ok());
  EXPECT_EQ(resolver.upstream_queries(), queries);
  EXPECT_EQ(resolver.cache_hits(), 1u);
}

TEST_F(ResolverFixture, SeededCutsStartTheWalkWithoutAnswersOrTallies) {
  Resolver source{network, options()};
  source.resolve(Name::must_parse("www.example.com"), RrType::kA);
  Resolver seeded{network, options()};
  seeded.seed_cuts(source);
  EXPECT_EQ(seeded.upstream_queries(), 0u);
  // The example.com cut serves the first query; no answer came along.
  seeded.resolve(Name::must_parse("www.example.com"), RrType::kA);
  EXPECT_EQ(seeded.upstream_queries(), 1u);
  EXPECT_EQ(seeded.cache_hits(), 0u);
  EXPECT_EQ(seeded.delegation_hits(), 1u);
  EXPECT_EQ(source.upstream_queries(), 3u);
}

TEST_F(ResolverFixture, SeededCutsKeepTheLifetimeTheyHadLeft) {
  Resolver source{network, options()};
  source.resolve(Name::must_parse("www.example.com"), RrType::kA);
  source.advance_time(299);  // 1 s left of the capped 300 s NS TTL
  Resolver seeded{network, options()};
  seeded.seed_cuts(source);
  seeded.advance_time(2);
  seeded.resolve(Name::must_parse("nosuch.example.com"), RrType::kA);
  EXPECT_EQ(seeded.upstream_queries(), 3u);
  EXPECT_EQ(seeded.delegation_hits(), 0u);
}

TEST_F(ResolverFixture, DeadRootYieldsServFail) {
  Resolver resolver{network, dead_root_options()};
  const auto r = resolver.resolve(Name::must_parse("www.example.com"),
                                  RrType::kA);
  EXPECT_EQ(r.rcode, Rcode::kServFail);
}

TEST_F(ResolverFixture, RecoversViaSecondRootAfterTimeout) {
  auto opts = options();
  opts.root_servers = {net::Ipv4(10, 0, 0, 99),  // dead
                       net::Ipv4(198, 41, 0, 4)};
  Resolver resolver{network, opts};
  const auto r = resolver.resolve(Name::must_parse("www.example.com"),
                                  RrType::kA);
  EXPECT_TRUE(r.ok());
}

TEST_F(ResolverFixture, AxfrAllowedClientGetsZone) {
  Resolver resolver{network, options()};
  const auto records = resolver.try_axfr(Name::must_parse("example.com"));
  ASSERT_TRUE(records);
  EXPECT_GE(records->size(), 5u);
  EXPECT_EQ(records->front().type(), RrType::kSoa);
}

TEST_F(ResolverFixture, AxfrDeniedClientGetsNothing) {
  auto opts = options();
  opts.client_address = net::Ipv4(203, 0, 113, 99);
  Resolver resolver{network, opts};
  EXPECT_FALSE(resolver.try_axfr(Name::must_parse("example.com")));
}

TEST_F(ResolverFixture, TimeoutServFailNegativelyCached) {
  Resolver resolver{network, dead_root_options()};
  const auto name = Name::must_parse("www.example.com");
  EXPECT_EQ(resolver.resolve(name, RrType::kA).rcode, Rcode::kServFail);
  const auto after_first = resolver.upstream_queries();
  // The dead delegation is negatively cached: repeating the lookup must
  // not re-probe the server list.
  EXPECT_EQ(resolver.resolve(name, RrType::kA).rcode, Rcode::kServFail);
  EXPECT_EQ(resolver.upstream_queries(), after_first);
  EXPECT_GE(resolver.cache_hits(), 1u);
  // ... but the entry is short-lived, so recovery is noticed.
  network.attach(kUnattachedRoot,
                 network.server_at(net::Ipv4(198, 41, 0, 4)));
  resolver.advance_time(Resolver::kServFailCacheTtl + 1);
  EXPECT_TRUE(resolver.resolve(name, RrType::kA).ok());
  EXPECT_GT(resolver.upstream_queries(), after_first);
}

TEST_F(ResolverFixture, AttemptCountMatchesMaxServerAttempts) {
  // Five dead roots and three attempts per delegation step: exactly
  // three upstream queries (one first try + two retries), then SERVFAIL.
  auto opts = options();
  opts.root_servers = {net::Ipv4(10, 0, 0, 1), net::Ipv4(10, 0, 0, 2),
                       net::Ipv4(10, 0, 0, 3), net::Ipv4(10, 0, 0, 4),
                       net::Ipv4(10, 0, 0, 5)};
  Resolver resolver{network, opts};
  const auto r = resolver.resolve(Name::must_parse("www.example.com"),
                                  RrType::kA);
  EXPECT_EQ(r.rcode, Rcode::kServFail);
  EXPECT_EQ(resolver.upstream_queries(), 3u);
  EXPECT_EQ(resolver.timeouts(), 3u);
  EXPECT_EQ(resolver.retries(), 2u);
}

TEST_F(ResolverFixture, AttemptBudgetBoundsFailover) {
  // A live root hiding behind three dead ones is out of reach for a
  // budget of 3 attempts.
  auto opts = options();
  opts.root_servers = {net::Ipv4(10, 0, 0, 1), net::Ipv4(10, 0, 0, 2),
                       net::Ipv4(10, 0, 0, 3), net::Ipv4(198, 41, 0, 4)};
  Resolver resolver{network, opts};
  EXPECT_EQ(
      resolver.resolve(Name::must_parse("www.example.com"), RrType::kA).rcode,
      Rcode::kServFail);
  EXPECT_EQ(resolver.upstream_queries(), 3u);
}

TEST_F(ResolverFixture, NsLookupReturnsNameServers) {
  Resolver resolver{network, options()};
  const auto r =
      resolver.resolve(Name::must_parse("example.com"), RrType::kNs);
  EXPECT_TRUE(r.ok());
  bool found = false;
  for (const auto& rr : r.records)
    if (const auto* ns = std::get_if<NsRecord>(&rr.data))
      found |= ns->nameserver.to_string() == "ns1.example.com";
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace cs::dns
