#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/features.h"
#include "cloud/provider.h"
#include "dns/resolver.h"
#include "dns/transport.h"

/// The synthetic Internet the study measures.
///
/// World builds, from one seed, everything the paper's pipeline needs:
///  - EC2 + Azure providers with instances backing every deployment,
///  - a ranked domain universe (the Alexa-top-N stand-in) whose cloud
///    adoption, provider mix, front-end patterns, region/zone usage, CDN
///    and DNS-hosting choices follow the marginals reported in §3-4,
///  - a complete DNS delegation tree (root -> TLDs -> domain zones ->
///    infrastructure zones like elb.amazonaws.com, herokuapp.com,
///    cloudfront.net, cloudapp.net, trafficmanager.net, msecnd.net)
///    served by in-process authoritative servers over the wire codec,
///  - ground truth for every subdomain, so estimators can be scored.
///
/// The "marquee" domains of the paper's Tables 4/8/10/15 (amazon.com,
/// pinterest.com, live.com, ...) are planted at their Alexa ranks with
/// their reported deployment shapes.
namespace cs::synth {

/// Front-end deployment pattern (ground truth, superset of Figure 1).
enum class FrontEnd {
  kVm,            ///< P1: A record(s) pointing at VM instances
  kElb,           ///< P2: CNAME to *.elb.amazonaws.com
  kBeanstalk,     ///< P3 via Beanstalk (always fronts an ELB)
  kHerokuElb,     ///< Heroku app behind an ELB
  kHeroku,        ///< Heroku shared proxy fleet (no ELB)
  kCloudService,  ///< Azure CS (direct IP or *.cloudapp.net CNAME)
  kTrafficManager,  ///< Azure TM CNAME chain
  kOpaqueCname,   ///< cloud-hosted behind a CNAME none of the heuristics
                  ///< recognize (the paper's unclassified 16% / 30%)
  kCdnOnly,       ///< P4: the subdomain is entirely CDN-fronted
  kOtherHosting,  ///< not on EC2/Azure at all
};

std::string to_string(FrontEnd front_end);

struct SubdomainTruth {
  dns::Name name;
  FrontEnd front_end = FrontEnd::kOtherHosting;
  /// Cloud the front end runs on (meaningless for kOtherHosting).
  cloud::ProviderKind provider = cloud::ProviderKind::kEc2;
  bool on_cloud = false;
  bool hybrid = false;  ///< also has a non-cloud A record (EC2+Other)
  std::vector<std::string> regions;  ///< deployed regions (usually one)
  std::set<int> zones;               ///< physical zones (EC2 only)
  /// Public front-end addresses (VM/proxy/CS IPs) for this subdomain.
  std::vector<net::Ipv4> front_ips;
  bool uses_cloudfront = false;
  bool uses_azure_cdn = false;
  bool discoverable = true;  ///< false = not on any wordlist (AXFR-only)
};

struct DomainTruth {
  dns::Name name;
  std::size_t rank = 0;  ///< 1-based Alexa-style rank
  std::string customer_country;  ///< where most clients are (AWIS stand-in)
  bool axfr_open = false;
  /// Name-server fleet classification for §4.1's DNS-server analysis.
  enum class DnsHosting { kExternal, kRoute53, kEc2Vm, kAzure };
  DnsHosting dns_hosting = DnsHosting::kExternal;
  std::vector<SubdomainTruth> subdomains;

  bool cloud_using() const {
    for (const auto& s : subdomains)
      if (s.on_cloud) return true;
    return false;
  }
};

struct WorldConfig {
  std::uint64_t seed = 2013;
  /// Size of the ranked universe (the paper's was 1M; default scales it
  /// down while preserving every marginal).
  std::size_t domain_count = 4000;
  /// Multiplier on the paper's ~4% cloud-adoption rate so small universes
  /// still contain enough cloud-using domains to analyze.
  double adoption_scale = 2.0;
  /// Insert the paper's named top domains at their real ranks.
  bool plant_marquee_domains = true;
};

class World {
 public:
  explicit World(WorldConfig config);

  const WorldConfig& config() const noexcept { return config_; }
  const std::vector<DomainTruth>& domains() const noexcept { return domains_; }
  const DomainTruth* domain(std::string_view name) const;

  /// The providers as the world built them. There is deliberately no
  /// mutable access: a stage that launches instances (probe fleets,
  /// traffic tenants) copies the provider and launches into its copy, so
  /// no stage can shift the addresses another stage sees.
  const cloud::Provider& ec2() const noexcept { return *ec2_; }
  const cloud::Provider& azure() const noexcept { return *azure_; }

  dns::SimulatedDnsNetwork& network() noexcept { return network_; }
  const std::vector<net::Ipv4>& root_servers() const noexcept {
    return root_servers_;
  }

  /// A resolver wired to this world's DNS (fresh cache each call).
  dns::Resolver make_resolver(net::Ipv4 client_address) const;

  /// Routes every future make_resolver() over `transport` instead of the
  /// in-process network — the single hook the live-socket backend
  /// (CS_TRANSPORT=socket) uses to carry resolver traffic over real UDP.
  /// The pointee must outlive the resolvers; nullptr restores the
  /// default. Build-phase only (same contract as the network mutators).
  void set_transport_override(dns::DnsTransport* transport) noexcept {
    transport_override_ = transport;
  }
  dns::DnsTransport* transport_override() const noexcept {
    return transport_override_;
  }

  /// Ground-truth lookup for scoring: the truth record of a subdomain.
  const SubdomainTruth* subdomain_truth(const dns::Name& name) const;

  /// All cloud-using subdomains (truth view).
  std::vector<const SubdomainTruth*> cloud_subdomains() const;

 private:
  class Builder;

  WorldConfig config_;
  std::unique_ptr<cloud::Provider> ec2_;
  std::unique_ptr<cloud::Provider> azure_;
  mutable dns::SimulatedDnsNetwork network_;
  dns::DnsTransport* transport_override_ = nullptr;
  std::vector<net::Ipv4> root_servers_;
  std::vector<DomainTruth> domains_;
  /// Flat subdomain index, sorted by the subdomain's canonical name and
  /// binary-searched by subdomain_truth(). Entries reference names in
  /// domains_ rather than copying them; at the paper's 34M subdomains a
  /// node-based map spent more memory on nodes than on the zone data.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> subdomain_index_;
  /// Domain positions sorted by canonical name, for domain() lookups
  /// (domains_ itself stays in rank order).
  std::vector<std::uint32_t> domain_index_;
};

}  // namespace cs::synth
