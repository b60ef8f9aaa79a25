#include "dns/enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "dns/wordlist.h"
#include "exec/config.h"

namespace cs::dns {
namespace {

SoaRecord soa_of(std::string_view mname) {
  SoaRecord soa;
  soa.mname = Name::must_parse(mname);
  soa.rname = Name::must_parse(mname);
  return soa;
}

class EnumerateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto root = std::make_shared<AuthoritativeServer>();
    auto& root_zone = root->add_zone(Name{}, soa_of("a.root"));
    root_zone.add(ResourceRecord::ns(Name::must_parse("com"),
                                     Name::must_parse("a.gtld.net")));
    root_zone.add(ResourceRecord::a(Name::must_parse("a.gtld.net"),
                                    net::Ipv4(192, 5, 6, 30)));

    auto com = std::make_shared<AuthoritativeServer>();
    auto& com_zone = com->add_zone(Name::must_parse("com"),
                                   soa_of("a.gtld.net"));
    for (const auto* domain : {"open.com", "closed.com"}) {
      com_zone.add(ResourceRecord::ns(
          Name::must_parse(domain),
          *Name::must_parse(domain).child("ns1")));
    }
    com_zone.add(ResourceRecord::a(Name::must_parse("ns1.open.com"),
                                   net::Ipv4(192, 0, 2, 10)));
    com_zone.add(ResourceRecord::a(Name::must_parse("ns1.closed.com"),
                                   net::Ipv4(192, 0, 2, 11)));

    auto make_domain = [](std::string_view apex, net::Ipv4 ns_addr,
                          bool allow_axfr) {
      auto server = std::make_shared<AuthoritativeServer>();
      auto& zone = server->add_zone(Name::must_parse(apex),
                                    soa_of(std::string{"ns1."} + std::string{apex}));
      const auto base = Name::must_parse(apex);
      zone.add(ResourceRecord::ns(base, *base.child("ns1")));
      zone.add(ResourceRecord::a(*base.child("ns1"), ns_addr));
      zone.add(ResourceRecord::a(*base.child("www"), net::Ipv4(10, 1, 1, 1)));
      zone.add(ResourceRecord::a(*base.child("mail"), net::Ipv4(10, 1, 1, 2)));
      // An exotic subdomain no wordlist would guess.
      zone.add(ResourceRecord::a(*base.child("zq9-secret"),
                                 net::Ipv4(10, 1, 1, 3)));
      if (allow_axfr)
        server->set_axfr_policy([](net::Ipv4, const Name&) { return true; });
      return server;
    };

    network.attach(net::Ipv4(198, 41, 0, 4), root);
    network.attach(net::Ipv4(192, 5, 6, 30), com);
    network.attach(net::Ipv4(192, 0, 2, 10),
                   make_domain("open.com", net::Ipv4(192, 0, 2, 10), true));
    network.attach(net::Ipv4(192, 0, 2, 11),
                   make_domain("closed.com", net::Ipv4(192, 0, 2, 11), false));
  }

  Resolver make_resolver() {
    Resolver::Options o;
    o.root_servers = {net::Ipv4(198, 41, 0, 4)};
    return Resolver{network, o};
  }

  Enumerator::Options options(bool attempt_axfr = true) {
    return {.wordlist = small_wordlist(),
            .attempt_axfr = attempt_axfr,
            .resolver_factory = [this] { return make_resolver(); }};
  }

  /// Queries spent enumerating closed.com over the default wordlist
  /// through chunk resolvers, at `threads` pool threads.
  std::uint64_t factory_queries_spent(unsigned threads, bool attempt_axfr) {
    exec::ScopedThreads guard{threads};
    auto resolver = make_resolver();
    auto opts = options(attempt_axfr);
    opts.wordlist = default_wordlist();
    Enumerator enumerator{resolver, opts};
    return enumerator.enumerate(Name::must_parse("closed.com")).queries_spent;
  }

  SimulatedDnsNetwork network;
};

TEST_F(EnumerateFixture, AxfrFindsEverySubdomain) {
  auto resolver = make_resolver();
  Enumerator enumerator{resolver, options()};
  const auto result = enumerator.enumerate(Name::must_parse("open.com"));
  EXPECT_TRUE(result.axfr_succeeded);
  const auto names = result.subdomains;
  auto has = [&names](std::string_view n) {
    return std::find(names.begin(), names.end(), Name::must_parse(n)) !=
           names.end();
  };
  EXPECT_TRUE(has("www.open.com"));
  EXPECT_TRUE(has("mail.open.com"));
  EXPECT_TRUE(has("zq9-secret.open.com"));  // AXFR sees everything
}

TEST_F(EnumerateFixture, BruteForceLowerBound) {
  auto resolver = make_resolver();
  Enumerator enumerator{resolver, options()};
  const auto result = enumerator.enumerate(Name::must_parse("closed.com"));
  EXPECT_FALSE(result.axfr_succeeded);
  const auto names = result.subdomains;
  auto has = [&names](std::string_view n) {
    return std::find(names.begin(), names.end(), Name::must_parse(n)) !=
           names.end();
  };
  EXPECT_TRUE(has("www.closed.com"));
  EXPECT_TRUE(has("mail.closed.com"));
  // Brute force is a lower bound: the unguessable name is missed.
  EXPECT_FALSE(has("zq9-secret.closed.com"));
}

TEST_F(EnumerateFixture, AxfrDisabledFallsStraightToBruteForce) {
  auto resolver = make_resolver();
  Enumerator enumerator{resolver, options(/*attempt_axfr=*/false)};
  const auto result = enumerator.enumerate(Name::must_parse("open.com"));
  EXPECT_FALSE(result.axfr_succeeded);
  EXPECT_FALSE(result.subdomains.empty());
}

// Exact exchange counts for closed.com, whose AXFR is refused. The AXFR
// attempt costs 5: the NS lookup walks root -> com -> closed.com (3), the
// A lookup for ns1.closed.com starts at the cached closed.com cut (1), and
// the refused transfer itself (1). Those 5 are the domain resolver's own.
// Each brute-force probe then costs one query to closed.com's own server
// through a chunk resolver, never another root/TLD walk.
TEST_F(EnumerateFixture, QueriesSpentAccounted) {
  auto resolver = make_resolver();
  Enumerator enumerator{resolver, options()};
  const auto result = enumerator.enumerate(Name::must_parse("closed.com"));
  EXPECT_EQ(result.queries_spent, 5u + small_wordlist().size());
  EXPECT_EQ(resolver.upstream_queries(), 5u);
}

TEST_F(EnumerateFixture, MissingResolverFactoryIsRejected) {
  auto resolver = make_resolver();
  auto opts = options();
  opts.resolver_factory = nullptr;
  EXPECT_THROW((Enumerator{resolver, opts}), std::invalid_argument);
}

// Brute force probes the wordlist in 48-word chunks, each through a
// fresh resolver that starts at the zone cuts the domain's resolver holds.
// The AXFR attempt has walked to closed.com's cut (5 queries, as above), so
// every probe is one query to closed.com's server.
TEST_F(EnumerateFixture, FactoryQueriesSpentAccountedAtAnyThreadCount) {
  const std::size_t words = default_wordlist().size();
  EXPECT_EQ(factory_queries_spent(1, /*attempt_axfr=*/true), 5u + words);
  EXPECT_EQ(factory_queries_spent(8, /*attempt_axfr=*/true), 5u + words);
}

// Without the AXFR attempt the domain's resolver holds no cut, so each
// chunk resolver walks root -> com once (2) before its own closed.com cut
// serves the rest of its probes.
TEST_F(EnumerateFixture, FactoryChunksWalkWhenTheDomainHoldsNoCut) {
  const std::size_t words = default_wordlist().size();
  const std::size_t chunks = (words + 47) / 48;
  EXPECT_EQ(factory_queries_spent(1, /*attempt_axfr=*/false),
            2u * chunks + words);
  EXPECT_EQ(factory_queries_spent(8, /*attempt_axfr=*/false),
            2u * chunks + words);
}

TEST_F(EnumerateFixture, NonexistentDomainYieldsNothing) {
  auto resolver = make_resolver();
  Enumerator enumerator{resolver, options()};
  const auto result = enumerator.enumerate(Name::must_parse("ghost.com"));
  EXPECT_FALSE(result.axfr_succeeded);
  EXPECT_TRUE(result.subdomains.empty());
}

TEST(Wordlist, DefaultListShape) {
  const auto& words = default_wordlist();
  EXPECT_GT(words.size(), 100u);
  // The paper's top prefix order: www first.
  EXPECT_EQ(words.front(), "www");
  // No duplicates.
  auto sorted = words;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Wordlist, SmallListIsSubsetSized) {
  EXPECT_LT(small_wordlist().size(), 20u);
}

}  // namespace
}  // namespace cs::dns
