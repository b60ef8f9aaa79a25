// Adversarial/failure-injection tests for the DNS stack: record cycles,
// delegation chains at the depth limit, servers dying mid-run. The
// measurement pipeline must degrade (fewer observations), never hang or
// crash — the property the paper's tooling needed across 34M lookups.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "analysis/dataset.h"
#include "dns/resolver.h"
#include "obs/metrics.h"
#include "synth/world.h"

namespace cs::dns {
namespace {

SoaRecord soa_of(std::string_view mname) {
  SoaRecord soa;
  soa.mname = Name::must_parse(mname);
  soa.rname = Name::must_parse(mname);
  return soa;
}

/// Root + com + a configurable leaf zone.
struct MiniTree {
  SimulatedDnsNetwork network;
  std::shared_ptr<AuthoritativeServer> leaf;
  Zone* com_zone = nullptr;
  Zone* leaf_zone = nullptr;

  MiniTree() {
    auto root = std::make_shared<AuthoritativeServer>();
    auto& root_zone = root->add_zone(Name{}, soa_of("a.root"));
    root_zone.add(ResourceRecord::ns(Name::must_parse("com"),
                                     Name::must_parse("a.gtld.net")));
    root_zone.add(ResourceRecord::a(Name::must_parse("a.gtld.net"),
                                    net::Ipv4(192, 5, 6, 30)));
    auto com = std::make_shared<AuthoritativeServer>();
    com_zone = &com->add_zone(Name::must_parse("com"), soa_of("a.gtld.net"));
    com_zone->add(ResourceRecord::ns(Name::must_parse("trap.com"),
                                     Name::must_parse("ns1.trap.com")));
    com_zone->add(ResourceRecord::a(Name::must_parse("ns1.trap.com"),
                                    net::Ipv4(192, 0, 2, 77)));
    leaf = std::make_shared<AuthoritativeServer>();
    leaf_zone = &leaf->add_zone(Name::must_parse("trap.com"),
                                soa_of("ns1.trap.com"));
    network.attach(net::Ipv4(198, 41, 0, 4), root);
    network.attach(net::Ipv4(192, 5, 6, 30), com);
    network.attach(net::Ipv4(192, 0, 2, 77), leaf);
  }

  /// A resolver over `transport`, or over the tree's network if null.
  Resolver make_resolver(DnsTransport* transport = nullptr) {
    Resolver::Options options;
    options.root_servers = {net::Ipv4(198, 41, 0, 4)};
    return Resolver{transport ? *transport : network, options};
  }
};

/// Forwards every exchange to a network, except that the servers at the
/// addresses in `dead` never answer: servers that die, and may come back,
/// while resolvers keep running over the same wire.
class DeadServers final : public DnsTransport {
 public:
  explicit DeadServers(SimulatedDnsNetwork& inner) : inner_(inner) {}

  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override {
    if (dead.contains(server.value())) return std::nullopt;
    return inner_.exchange(client, server, query);
  }

  std::unordered_set<std::uint32_t> dead;

 private:
  SimulatedDnsNetwork& inner_;
};

TEST(DnsHardening, InZoneCnameCycleTerminates) {
  MiniTree tree;
  tree.leaf_zone->add(ResourceRecord::cname(
      Name::must_parse("a.trap.com"), Name::must_parse("b.trap.com")));
  tree.leaf_zone->add(ResourceRecord::cname(
      Name::must_parse("b.trap.com"), Name::must_parse("a.trap.com")));
  auto resolver = tree.make_resolver();
  const auto result =
      resolver.resolve(Name::must_parse("a.trap.com"), RrType::kA);
  // Terminates without an address; rcode is not the interesting part.
  EXPECT_TRUE(result.addresses().empty());
}

TEST(DnsHardening, CrossZoneCnameCycleTerminates) {
  MiniTree tree;
  // a -> x.other.com; other.com does not exist -> chase dies cleanly.
  tree.leaf_zone->add(ResourceRecord::cname(
      Name::must_parse("a.trap.com"), Name::must_parse("x.missing.com")));
  auto resolver = tree.make_resolver();
  const auto result =
      resolver.resolve(Name::must_parse("a.trap.com"), RrType::kA);
  EXPECT_TRUE(result.addresses().empty());
}

TEST(DnsHardening, SelfCnameTerminates) {
  MiniTree tree;
  tree.leaf_zone->add(ResourceRecord::cname(
      Name::must_parse("self.trap.com"), Name::must_parse("self.trap.com")));
  auto resolver = tree.make_resolver();
  const auto result =
      resolver.resolve(Name::must_parse("self.trap.com"), RrType::kA);
  EXPECT_TRUE(result.addresses().empty());
}

TEST(DnsHardening, LongCnameChainWithinLimitResolves) {
  MiniTree tree;
  for (int i = 0; i < 10; ++i) {
    tree.leaf_zone->add(ResourceRecord::cname(
        Name::must_parse("c" + std::to_string(i) + ".trap.com"),
        Name::must_parse("c" + std::to_string(i + 1) + ".trap.com")));
  }
  tree.leaf_zone->add(ResourceRecord::a(Name::must_parse("c10.trap.com"),
                                        net::Ipv4(9, 9, 9, 9)));
  auto resolver = tree.make_resolver();
  const auto result =
      resolver.resolve(Name::must_parse("c0.trap.com"), RrType::kA);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.addresses().size(), 1u);
}

TEST(DnsHardening, GluelessLoopDelegationFails) {
  // trap.com delegates deep.trap.com to a name server INSIDE the
  // delegated space with no glue — unresolvable by construction.
  MiniTree tree;
  tree.leaf_zone->add(ResourceRecord::ns(
      Name::must_parse("deep.trap.com"),
      Name::must_parse("ns.deep.trap.com")));
  auto resolver = tree.make_resolver();
  const auto result =
      resolver.resolve(Name::must_parse("www.deep.trap.com"), RrType::kA);
  EXPECT_EQ(result.rcode, Rcode::kServFail);
}

TEST(DnsHardening, ServerDiesMidRun) {
  MiniTree tree;
  tree.leaf_zone->add(ResourceRecord::a(Name::must_parse("www.trap.com"),
                                        net::Ipv4(9, 9, 9, 1)));
  DeadServers wire{tree.network};
  auto resolver = tree.make_resolver(&wire);
  EXPECT_TRUE(
      resolver.resolve(Name::must_parse("www.trap.com"), RrType::kA).ok());
  wire.dead.insert(net::Ipv4(192, 0, 2, 77).value());
  resolver.flush_cache();
  const auto dead =
      resolver.resolve(Name::must_parse("www.trap.com"), RrType::kA);
  EXPECT_EQ(dead.rcode, Rcode::kServFail);
  wire.dead.clear();
  resolver.flush_cache();
  EXPECT_TRUE(
      resolver.resolve(Name::must_parse("www.trap.com"), RrType::kA).ok());
}

TEST(DnsHardening, DatasetSurvivesDeadFleet) {
  // Kill a third of all attached DNS servers in a world; the dataset
  // builder must complete and simply observe fewer subdomains.
  synth::WorldConfig config;
  config.domain_count = 120;
  synth::World world{config};

  analysis::DatasetBuilder healthy_builder{
      world, {.lookup_vantages = 1, .collect_name_servers = false}};
  const auto healthy = healthy_builder.build();

  // Take down a band of the non-cloud hosting space where external DNS
  // fleets live (70.0.0.x addresses).
  DeadServers wire{world.network()};
  for (std::uint32_t tail = 0; tail < 256; tail += 2)
    wire.dead.insert((70u << 24) + tail);
  world.set_transport_override(&wire);

  analysis::DatasetBuilder degraded_builder{
      world, {.lookup_vantages = 1, .collect_name_servers = false}};
  const auto degraded = degraded_builder.build();
  EXPECT_LE(degraded.cloud_subdomains.size(),
            healthy.cloud_subdomains.size());
  EXPECT_EQ(degraded.domains.size(), healthy.domains.size());
}

/// Answers every query for a name under trap.com sent to the com server
/// with a referral to victim.com's cut pointing at an attacker's server;
/// everything else passes through to the real network.
class OffPathReferrer final : public DnsTransport {
 public:
  explicit OffPathReferrer(SimulatedDnsNetwork& inner) : inner_(inner) {}

  std::optional<std::vector<std::uint8_t>> exchange(
      net::Ipv4 client, net::Ipv4 server,
      std::span<const std::uint8_t> query) override {
    const auto decoded = Message::decode(query);
    if (server != net::Ipv4(192, 5, 6, 30) || !decoded ||
        decoded->questions.empty() ||
        !decoded->questions[0].name.is_subdomain_of(
            Name::must_parse("trap.com")))
      return inner_.exchange(client, server, query);
    auto referral = Message::response_to(*decoded, Rcode::kNoError, false);
    referral.authority.push_back(ResourceRecord::ns(
        Name::must_parse("victim.com"), Name::must_parse("ns.evil.net")));
    referral.additional.push_back(ResourceRecord::a(
        Name::must_parse("ns.evil.net"), net::Ipv4(192, 0, 2, 66)));
    return referral.encode();
  }

 private:
  SimulatedDnsNetwork& inner_;
};

TEST(DnsHardening, OffPathReferralDoesNotRedirectLaterLookups) {
  MiniTree tree;
  tree.com_zone->add(ResourceRecord::ns(Name::must_parse("victim.com"),
                                        Name::must_parse("ns1.victim.com")));
  tree.com_zone->add(ResourceRecord::a(Name::must_parse("ns1.victim.com"),
                                       net::Ipv4(192, 0, 2, 88)));
  auto victim = std::make_shared<AuthoritativeServer>();
  victim->add_zone(Name::must_parse("victim.com"), soa_of("ns1.victim.com"))
      .add(ResourceRecord::a(Name::must_parse("www.victim.com"),
                             net::Ipv4(9, 9, 9, 2)));
  auto evil = std::make_shared<AuthoritativeServer>();
  evil->add_zone(Name::must_parse("victim.com"), soa_of("ns.evil.net"))
      .add(ResourceRecord::a(Name::must_parse("www.victim.com"),
                             net::Ipv4(6, 6, 6, 6)));
  tree.network.attach(net::Ipv4(192, 0, 2, 88), victim);
  tree.network.attach(net::Ipv4(192, 0, 2, 66), evil);

  OffPathReferrer referrer{tree.network};
  Resolver::Options options;
  options.root_servers = {net::Ipv4(198, 41, 0, 4)};
  Resolver resolver{referrer, options};
  // victim.com is not an ancestor of www.trap.com: the resolver follows
  // the referral for this lookup but must not remember the cut.
  resolver.resolve(Name::must_parse("www.trap.com"), RrType::kA);
  const auto result =
      resolver.resolve(Name::must_parse("www.victim.com"), RrType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.addresses(), std::vector<net::Ipv4>{net::Ipv4(9, 9, 9, 2)});
}

TEST(DnsHardening, QueryCounterMonotone) {
  MiniTree tree;
  tree.leaf_zone->add(ResourceRecord::a(Name::must_parse("www.trap.com"),
                                        net::Ipv4(9, 9, 9, 1)));
  auto resolver = tree.make_resolver();
  const auto& served = obs::counter("dns.server.queries");
  const auto before = served.value();
  resolver.resolve(Name::must_parse("www.trap.com"), RrType::kA);
  EXPECT_GT(served.value(), before);
}

}  // namespace
}  // namespace cs::dns
