#include "synth/world.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "dns/wordlist.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/format.h"

namespace cs::synth {
namespace {

using cloud::ProviderKind;
using dns::Name;
using dns::ResourceRecord;
using dns::SoaRecord;

SoaRecord soa_of(const Name& origin) {
  SoaRecord soa;
  soa.mname = *origin.child("ns1");
  soa.rname = *origin.child("hostmaster");
  soa.serial = 2013032701;
  return soa;
}

/// Deployment spec for one of the paper's named top domains.
struct MarqueeSpec {
  const char* name;
  std::size_t rank;
  ProviderKind provider;
  int cloud_subdomains;
  int vm_front, elb_front, paas_front, cdn_subs;
  int elb_proxy_budget;  ///< total physical ELB IPs across the domain
  int region_count;
  /// Zone-usage plan: how many subdomains use 1, 2, 3 zones.
  int zones_k1, zones_k2, zones_k3;
  const char* customer_country;
};

/// Tables 4/8/10/15 distilled. PaaS entries for EC2 domains use Heroku
/// unless noted; 163.com / hao123.com's "other CDN" is modeled as opaque.
constexpr MarqueeSpec kMarquees[] = {
    // EC2 domains (Tables 4, 8, 15).
    {"amazon.com", 9, ProviderKind::kEc2, 2, 0, 2, 1, 0, 27, 1, 0, 0, 2,
     "US"},
    {"linkedin.com", 13, ProviderKind::kEc2, 3, 1, 1, 1, 0, 1, 2, 1, 1, 1,
     "US"},
    {"163.com", 29, ProviderKind::kEc2, 4, 0, 0, 0, 0, 0, 1, 4, 0, 0, "CN"},
    {"pinterest.com", 35, ProviderKind::kEc2, 18, 18, 0, 0, 0, 0, 1, 10, 0,
     8, "US"},
    {"fc2.com", 36, ProviderKind::kEc2, 14, 10, 4, 0, 0, 68, 2, 1, 11, 2,
     "JP"},
    {"conduit.com", 38, ProviderKind::kEc2, 1, 0, 1, 1, 0, 3, 1, 0, 1, 0,
     "US"},
    {"ask.com", 42, ProviderKind::kEc2, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, "US"},
    {"apple.com", 47, ProviderKind::kEc2, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0,
     "US"},
    {"imdb.com", 48, ProviderKind::kEc2, 2, 2, 0, 0, 1, 0, 1, 2, 0, 0, "US"},
    {"hao123.com", 51, ProviderKind::kEc2, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0,
     "CN"},
    {"go.com", 59, ProviderKind::kEc2, 4, 4, 0, 0, 0, 0, 1, 4, 0, 0, "US"},
    // Azure domains (Table 10).
    {"live.com", 7, ProviderKind::kAzure, 18, 18, 0, 0, 0, 0, 3, 18, 0, 0,
     "US"},
    {"msn.com", 18, ProviderKind::kAzure, 89, 89, 0, 0, 0, 0, 5, 78, 11, 0,
     "US"},
    {"bing.com", 20, ProviderKind::kAzure, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0,
     "US"},
    {"microsoft.com", 31, ProviderKind::kAzure, 11, 11, 0, 0, 0, 0, 5, 7, 4,
     0, "US"},
};

const char* kTlds[] = {"com", "net", "org", "de", "jp", "cn", "ru", "br"};
constexpr double kTldWeights[] = {0.55, 0.12, 0.09, 0.06, 0.05,
                                  0.05, 0.04, 0.04};

struct CountryWeight {
  const char* country;
  double weight;
};
constexpr CountryWeight kCustomerCountries[] = {
    {"US", 0.34}, {"CN", 0.12}, {"IN", 0.08}, {"JP", 0.07}, {"BR", 0.05},
    {"DE", 0.05}, {"GB", 0.04}, {"RU", 0.04}, {"FR", 0.03}, {"CA", 0.02},
    {"AU", 0.02}, {"KR", 0.02}, {"MX", 0.02}, {"ES", 0.02}, {"IT", 0.02},
    {"NL", 0.01}, {"SG", 0.01}, {"IE", 0.01}, {"HK", 0.01}, {"ID", 0.02},
};

/// Table 9 EC2 subdomain-count weights, normalized at use.
struct RegionWeight {
  const char* region;
  double weight;
};
constexpr RegionWeight kEc2RegionWeights[] = {
    {"ec2.us-east-1", 521681}, {"ec2.eu-west-1", 116366},
    {"ec2.us-west-1", 40548},  {"ec2.us-west-2", 15635},
    {"ec2.ap-southeast-1", 20871}, {"ec2.ap-northeast-1", 16965},
    {"ec2.sa-east-1", 14866},  {"ec2.ap-southeast-2", 554},
};
constexpr RegionWeight kAzureRegionWeights[] = {
    {"az.us-east", 862},  {"az.us-west", 558},       {"az.us-north", 2071},
    {"az.us-south", 1395}, {"az.eu-west", 1035},      {"az.eu-north", 1205},
    {"az.ap-southeast", 632}, {"az.ap-east", 502},
};

}  // namespace

std::string to_string(FrontEnd front_end) {
  switch (front_end) {
    case FrontEnd::kVm:
      return "VM";
    case FrontEnd::kElb:
      return "ELB";
    case FrontEnd::kBeanstalk:
      return "Beanstalk";
    case FrontEnd::kHerokuElb:
      return "Heroku+ELB";
    case FrontEnd::kHeroku:
      return "Heroku";
    case FrontEnd::kCloudService:
      return "CloudService";
    case FrontEnd::kTrafficManager:
      return "TrafficManager";
    case FrontEnd::kOpaqueCname:
      return "Opaque";
    case FrontEnd::kCdnOnly:
      return "CDN-only";
    case FrontEnd::kOtherHosting:
      return "Other";
  }
  return "?";
}

/// Builds the world in dependency order: providers, DNS skeleton,
/// infrastructure zones, name-server fleets, then the ranked domains.
class World::Builder {
 public:
  Builder(World& world)
      : world_(world),
        rng_(world.config_.seed),
        elbs_(*world.ec2_, world.config_.seed ^ 1),
        heroku_(*world.ec2_, world.config_.seed ^ 2),
        beanstalk_(elbs_, world.config_.seed ^ 3),
        cloudfront_(*world.ec2_, world.config_.seed ^ 4),
        cloud_services_(*world.azure_, world.config_.seed ^ 5),
        traffic_manager_(cloud_services_, world.config_.seed ^ 6) {}

  void build() {
    setup_dns_skeleton();
    setup_infra_zones();
    setup_fleets();
    plant_domains();
    index_subdomains();
  }

 private:
  // --- address pools -------------------------------------------------
  net::Ipv4 other_ip() {
    // Non-cloud hosting space.
    const std::uint32_t v = (70u << 24) + other_counter_++;
    return net::Ipv4{v};
  }
  net::Ipv4 infra_ip() {
    const std::uint32_t v = (192u << 24) + (175u << 16) + infra_counter_++;
    return net::Ipv4{v};
  }

  // --- DNS skeleton ---------------------------------------------------
  void setup_dns_skeleton() {
    root_server_ = std::make_shared<dns::AuthoritativeServer>();
    root_zone_ = &root_server_->add_zone(Name{}, soa_of(Name{}));
    const net::Ipv4 root_addr{198, 41, 0, 4};
    world_.network_.attach(root_addr, root_server_);
    world_.root_servers_ = {root_addr};

    for (const auto* tld : kTlds) {
      auto server = std::make_shared<dns::AuthoritativeServer>();
      const Name origin = Name::must_parse(tld);
      tld_zones_[std::string{tld}] = &server->add_zone(origin, soa_of(origin));
      const net::Ipv4 addr = infra_ip();
      world_.network_.attach(addr, server);
      const Name ns_name = Name::must_parse(
          util::fmt("{}.gtld-servers.net", tld));
      root_zone_->add(ResourceRecord::ns(origin, ns_name));
      root_zone_->add(ResourceRecord::a(ns_name, addr));
      tld_servers_[std::string{tld}] = std::move(server);
    }
  }

  dns::Zone* tld_zone(const Name& domain) {
    std::string_view tld;
    for (const auto label : domain.labels()) tld = label;
    const auto it = tld_zones_.find(std::string{tld});
    return it == tld_zones_.end() ? nullptr : it->second;
  }

  /// Hosts `origin` on `server`, attaches the server at `ns_addrs`, and
  /// installs the delegation (with glue) in the parent TLD zone.
  dns::Zone* host_zone(const std::shared_ptr<dns::AuthoritativeServer>& server,
                       const Name& origin,
                       const std::vector<Name>& ns_names,
                       const std::vector<net::Ipv4>& ns_addrs) {
    auto* zone = &server->add_zone(origin, soa_of(origin));
    dns::Zone* parent = tld_zone(origin);
    for (std::size_t i = 0; i < ns_names.size(); ++i) {
      zone->add(ResourceRecord::ns(origin, ns_names[i]));
      if (ns_names[i].is_subdomain_of(origin) && i < ns_addrs.size())
        zone->add(ResourceRecord::a(ns_names[i], ns_addrs[i]));
      if (parent) {
        parent->add(ResourceRecord::ns(origin, ns_names[i]));
        if (i < ns_addrs.size())
          parent->add(ResourceRecord::a(ns_names[i], ns_addrs[i]));
      }
    }
    for (const auto addr : ns_addrs) world_.network_.attach(addr, server);
    return zone;
  }

  // --- infrastructure zones --------------------------------------------
  void setup_infra_zones() {
    infra_server_ = std::make_shared<dns::AuthoritativeServer>();
    auto host_infra = [this](const char* origin_text) {
      const Name origin = Name::must_parse(origin_text);
      const Name ns1 = *origin.child("ns1");
      const Name ns2 = *origin.child("ns2");
      return host_zone(infra_server_, origin, {ns1, ns2},
                       {infra_ip(), infra_ip()});
    };
    amazonaws_zone_ = host_infra("amazonaws.com");
    beanstalk_zone_ = host_infra("elasticbeanstalk.com");
    heroku_zone_ = host_infra("heroku.com");
    herokuapp_zone_ = host_infra("herokuapp.com");
    cloudfront_zone_ = host_infra("cloudfront.net");
    cloudapp_zone_ = host_infra("cloudapp.net");
    tm_zone_ = host_infra("trafficmanager.net");
    // Traffic Manager's client-dependent answers (see deploy_traffic_manager).
    tm_members_ = std::make_shared<std::map<Name, std::vector<Name>>>();
    infra_server_->set_dynamic_answer(
        [members = tm_members_](net::Ipv4 client, const Name& qname)
            -> std::optional<ResourceRecord> {
          const auto it = members->find(qname);
          if (it == members->end() || it->second.empty())
            return std::nullopt;
          // Keyed by the client's /24 network, not its whole address:
          // every PlanetLab vantage is host .10 of its own /24, so keying
          // by the address handed all of them the same member of a
          // two-member profile.
          const auto& pick =
              it->second[(client.value() >> 8) % it->second.size()];
          return ResourceRecord::cname(qname, pick, 30);
        });
    msecnd_zone_ = host_infra("msecnd.net");
    opaque_zone_ = host_infra("opaq-edge.net");

    // Heroku's shared proxy CNAME target resolves to fleet members; the
    // fleet grows lazily, so records are added when apps are created.
  }

  // --- name-server fleets ----------------------------------------------
  struct Fleet {
    std::shared_ptr<dns::AuthoritativeServer> server;
    std::vector<Name> ns_names;
    std::vector<net::Ipv4> ns_addrs;
    DomainTruth::DnsHosting kind = DomainTruth::DnsHosting::kExternal;
    /// Zones on this fleet that permit AXFR (per-zone policy).
    std::shared_ptr<std::set<Name>> axfr_open_zones;
  };

  void add_fleet(DomainTruth::DnsHosting kind, const std::string& zone_name,
                 int ns_count, const std::vector<net::Ipv4>& addrs) {
    Fleet fleet;
    fleet.kind = kind;
    fleet.server = std::make_shared<dns::AuthoritativeServer>();
    const Name origin = Name::must_parse(zone_name);
    for (int i = 0; i < ns_count; ++i) {
      fleet.ns_names.push_back(
          *origin.child(util::fmt("ns{}", i + 1)));
      fleet.ns_addrs.push_back(addrs.at(static_cast<std::size_t>(i)));
    }
    host_zone(fleet.server, origin, fleet.ns_names, fleet.ns_addrs);
    fleet.axfr_open_zones = std::make_shared<std::set<Name>>();
    fleet.server->set_axfr_policy(
        [open = fleet.axfr_open_zones](net::Ipv4, const Name& zone) {
          return open->contains(zone);
        });
    fleets_[kind].push_back(std::move(fleet));
  }

  void setup_fleets() {
    // External DNS providers (the 86% case), 4-10 servers each.
    for (int k = 0; k < 24; ++k) {
      const int ns_count = 4 + static_cast<int>(rng_.next_below(7));
      std::vector<net::Ipv4> addrs;
      for (int i = 0; i < ns_count; ++i) addrs.push_back(other_ip());
      add_fleet(DomainTruth::DnsHosting::kExternal,
                util::fmt("dns{}-provider.net", k + 1), ns_count, addrs);
    }
    // Route53-like fleets: names carry "route53", addresses sit in the
    // CloudFront range (the paper's §4.1 observation).
    for (int k = 0; k < 4; ++k) {
      const int ns_count = 4 + static_cast<int>(rng_.next_below(5));
      std::vector<net::Ipv4> addrs;
      for (int i = 0; i < ns_count; ++i)
        addrs.push_back(world_.ec2_->allocate_cdn_ip());
      add_fleet(DomainTruth::DnsHosting::kRoute53,
                util::fmt("route53-{}.awsdns.com", k + 1), ns_count, addrs);
    }
    // DNS on EC2 VMs.
    for (int k = 0; k < 4; ++k) {
      const int ns_count = 3 + static_cast<int>(rng_.next_below(4));
      std::vector<net::Ipv4> addrs;
      for (int i = 0; i < ns_count; ++i) {
        addrs.push_back(world_.ec2_
                            ->launch({.account = util::fmt("dnshost-{}", k),
                                      .region = "ec2.us-east-1",
                                      .type = "dns-vm"})
                            .public_ip);
      }
      add_fleet(DomainTruth::DnsHosting::kEc2Vm,
                util::fmt("ec2dns{}.com", k + 1), ns_count, addrs);
    }
    // DNS inside Azure (rare: 22 servers in the paper).
    {
      std::vector<net::Ipv4> addrs;
      for (int i = 0; i < 4; ++i) {
        addrs.push_back(world_.azure_
                            ->launch({.account = "azdns",
                                      .region = "az.us-south",
                                      .type = "dns-vm"})
                            .public_ip);
      }
      add_fleet(DomainTruth::DnsHosting::kAzure, "azuredns.net", 4, addrs);
    }
  }

  const Fleet& pick_fleet(DomainTruth::DnsHosting kind) {
    const auto& pool = fleets_.at(kind);
    return pool[rng_.next_below(pool.size())];
  }

  DomainTruth::DnsHosting pick_dns_hosting() {
    const double u = rng_.uniform01();
    if (u < 0.86) return DomainTruth::DnsHosting::kExternal;
    if (u < 0.95) return DomainTruth::DnsHosting::kRoute53;
    if (u < 0.999) return DomainTruth::DnsHosting::kEc2Vm;
    return DomainTruth::DnsHosting::kAzure;
  }

  // --- deployment helpers ------------------------------------------------
  static std::string continent_of_country(const std::string& country) {
    static const std::map<std::string, std::string> kMap = {
        {"US", "NA"}, {"CA", "NA"}, {"MX", "NA"}, {"BR", "SA"},
        {"GB", "EU"}, {"DE", "EU"}, {"FR", "EU"}, {"ES", "EU"},
        {"IT", "EU"}, {"NL", "EU"}, {"IE", "EU"}, {"RU", "EU"},
        {"CN", "AS"}, {"JP", "AS"}, {"KR", "AS"}, {"IN", "AS"},
        {"SG", "AS"}, {"HK", "AS"}, {"ID", "AS"}, {"AU", "OC"},
    };
    const auto it = kMap.find(country);
    return it == kMap.end() ? "??" : it->second;
  }

  /// Tenants show a mild home bias: with some probability they deploy on
  /// their customers' continent; otherwise the global popularity weights
  /// apply. The blend reproduces both Table 9's skew and the §4.2 finding
  /// that 32% of subdomains sit on the wrong continent anyway.
  std::string pick_region(ProviderKind provider) {
    const auto& provider_obj =
        provider == ProviderKind::kEc2 ? *world_.ec2_ : *world_.azure_;
    if (!customer_continent_.empty() && rng_.chance(0.45)) {
      std::vector<const cloud::Region*> local;
      for (const auto& region : provider_obj.regions())
        if (region.location.continent == customer_continent_)
          local.push_back(&region);
      if (!local.empty())
        return local[rng_.next_below(local.size())]->name;
    }
    std::vector<double> weights;
    if (provider == ProviderKind::kEc2) {
      for (const auto& rw : kEc2RegionWeights) weights.push_back(rw.weight);
      return kEc2RegionWeights[rng_.weighted_pick(weights)].region;
    }
    for (const auto& rw : kAzureRegionWeights) weights.push_back(rw.weight);
    return kAzureRegionWeights[rng_.weighted_pick(weights)].region;
  }

  /// Tenants prefer low zone labels; with identity-biased permutations
  /// this produces the physical-zone skew of Table 14.
  int pick_zone_label(int zone_count) {
    static constexpr double kLabelWeights[] = {0.52, 0.30, 0.18};
    std::vector<double> weights(kLabelWeights,
                                kLabelWeights + std::min(zone_count, 3));
    return static_cast<int>(rng_.weighted_pick(weights));
  }

  /// Launches VM front ends for a subdomain across `zone_count` zones of
  /// one region and installs ground truth + A records.
  void deploy_vms(SubdomainTruth& truth, dns::Zone& zone,
                  const std::string& account, const std::string& region,
                  int vm_count, int want_zones) {
    const auto* region_info = world_.ec2_->region(region);
    const int zones_avail = region_info ? region_info->zone_count : 1;
    want_zones = std::min(want_zones, zones_avail);
    vm_count = std::max(vm_count, want_zones);
    std::vector<int> labels;
    labels.push_back(pick_zone_label(zones_avail));
    while (static_cast<int>(labels.size()) < want_zones) {
      const int label = pick_zone_label(zones_avail);
      if (std::find(labels.begin(), labels.end(), label) == labels.end())
        labels.push_back(label);
    }
    for (int i = 0; i < vm_count; ++i) {
      const int label = labels[static_cast<std::size_t>(i) % labels.size()];
      const auto& vm = world_.ec2_->launch({.account = account,
                                            .region = region,
                                            .zone_label = label,
                                            .type = "m1.medium"});
      truth.front_ips.push_back(vm.public_ip);
      truth.zones.insert(vm.zone);
      zone.add(ResourceRecord::a(truth.name, vm.public_ip));
    }
    if (std::find(truth.regions.begin(), truth.regions.end(), region) ==
        truth.regions.end())
      truth.regions.push_back(region);
  }

  void deploy_elb(SubdomainTruth& truth, dns::Zone& zone,
                  const std::string& account, const std::string& region,
                  int proxy_count) {
    const auto lb = elbs_.create(account, region, proxy_count);
    zone.add(ResourceRecord::cname(truth.name, lb.cname));
    for (const auto ip : lb.proxy_ips) {
      amazonaws_zone_->add(ResourceRecord::a(lb.cname, ip));
      truth.front_ips.push_back(ip);
      if (const auto z = world_.ec2_->zone_of_public_ip(ip))
        truth.zones.insert(*z);
    }
    if (std::find(truth.regions.begin(), truth.regions.end(), region) ==
        truth.regions.end())
      truth.regions.push_back(region);
  }

  void deploy_beanstalk(SubdomainTruth& truth, dns::Zone& zone,
                        const std::string& account,
                        const std::string& region) {
    const auto env = beanstalk_.create(account, region);
    zone.add(ResourceRecord::cname(truth.name, env.cname));
    beanstalk_zone_->add(ResourceRecord::cname(env.cname, env.elb.cname));
    for (const auto ip : env.elb.proxy_ips) {
      amazonaws_zone_->add(ResourceRecord::a(env.elb.cname, ip));
      truth.front_ips.push_back(ip);
      if (const auto z = world_.ec2_->zone_of_public_ip(ip))
        truth.zones.insert(*z);
    }
    truth.regions.push_back(region);
  }

  void deploy_heroku(SubdomainTruth& truth, dns::Zone& zone, bool with_elb,
                     const std::string& account) {
    const std::string region = "ec2.us-east-1";  // Heroku's 2013 home
    if (with_elb) {
      const auto app = heroku_.create(false);
      const auto lb = elbs_.create(account, region, 2);
      zone.add(ResourceRecord::cname(truth.name, app.cname));
      herokuapp_zone_->add(ResourceRecord::cname(app.cname, lb.cname));
      for (const auto ip : lb.proxy_ips) {
        amazonaws_zone_->add(ResourceRecord::a(lb.cname, ip));
        truth.front_ips.push_back(ip);
        if (const auto z = world_.ec2_->zone_of_public_ip(ip))
          truth.zones.insert(*z);
      }
    } else {
      const bool shared = rng_.chance(0.34);
      const auto app = heroku_.create(shared);
      zone.add(ResourceRecord::cname(truth.name, app.cname));
      dns::Zone* target_zone =
          shared ? heroku_zone_ : herokuapp_zone_;
      for (const auto ip : app.ips) {
        // The shared proxy name accumulates A records; tolerate repeats.
        target_zone->add(ResourceRecord::a(app.cname, ip));
        truth.front_ips.push_back(ip);
        if (const auto z = world_.ec2_->zone_of_public_ip(ip))
          truth.zones.insert(*z);
      }
    }
    truth.regions.push_back(region);
  }

  void deploy_cloud_service(SubdomainTruth& truth, dns::Zone& zone,
                            const std::string& account,
                            const std::string& region, bool direct_ip) {
    const auto cs = cloud_services_.create(account, region);
    if (direct_ip) {
      zone.add(ResourceRecord::a(truth.name, cs.ip));
    } else {
      zone.add(ResourceRecord::cname(truth.name, cs.cname));
      cloudapp_zone_->add(ResourceRecord::a(cs.cname, cs.ip));
    }
    truth.front_ips.push_back(cs.ip);
    truth.regions.push_back(region);
  }

  void deploy_traffic_manager(SubdomainTruth& truth, dns::Zone& zone,
                              const std::string& account) {
    std::vector<std::string> regions = {pick_region(ProviderKind::kAzure)};
    if (rng_.chance(0.5)) {
      const auto second = pick_region(ProviderKind::kAzure);
      if (second != regions[0]) regions.push_back(second);
    }
    const auto profile = traffic_manager_.create(account, regions);
    zone.add(ResourceRecord::cname(truth.name, profile.cname));
    // TM balances at the DNS layer: the infra server answers the profile
    // CNAME with a member chosen per client, so distributed lookups (the
    // paper's 200-vantage methodology) observe every member region.
    std::vector<Name> member_cnames;
    for (const auto& member : profile.members)
      member_cnames.push_back(member.cname);
    (*tm_members_)[profile.cname] = std::move(member_cnames);
    for (const auto& member : profile.members) {
      cloudapp_zone_->add(ResourceRecord::a(member.cname, member.ip));
      truth.front_ips.push_back(member.ip);
      if (std::find(truth.regions.begin(), truth.regions.end(),
                    member.region) == truth.regions.end())
        truth.regions.push_back(member.region);
    }
  }

  void deploy_opaque(SubdomainTruth& truth, dns::Zone& zone,
                     const std::string& account, ProviderKind provider,
                     const std::string& region) {
    const Name target = *Name::must_parse("opaq-edge.net")
                             .child(util::fmt("edge{}", opaque_counter_++));
    zone.add(ResourceRecord::cname(truth.name, target));
    net::Ipv4 ip;
    if (provider == ProviderKind::kEc2) {
      const auto& vm = world_.ec2_->launch(
          {.account = account, .region = region, .type = "m1.small"});
      ip = vm.public_ip;
      truth.zones.insert(vm.zone);
    } else {
      ip = world_.azure_
               ->launch({.account = account, .region = region,
                         .type = "cloud-service"})
               .public_ip;
    }
    opaque_zone_->add(ResourceRecord::a(target, ip));
    truth.front_ips.push_back(ip);
    truth.regions.push_back(region);
  }

  void deploy_cloudfront(SubdomainTruth& truth, dns::Zone& zone) {
    const auto dist =
        cloudfront_.create(1 + static_cast<int>(rng_.next_below(3)));
    zone.add(ResourceRecord::cname(truth.name, dist.cname));
    for (const auto ip : dist.edge_ips) {
      cloudfront_zone_->add(ResourceRecord::a(dist.cname, ip));
      truth.front_ips.push_back(ip);
    }
    truth.uses_cloudfront = true;
  }

  void deploy_azure_cdn(SubdomainTruth& truth, dns::Zone& zone) {
    const Name target = *Name::must_parse("msecnd.net")
                             .child(util::fmt("cdn{}", azure_cdn_counter_++));
    zone.add(ResourceRecord::cname(truth.name, target));
    const auto ip = world_.azure_
                        ->launch({.account = "azure-cdn",
                                  .region = "az.us-south",
                                  .type = "cdn-edge"})
                        .public_ip;
    msecnd_zone_->add(ResourceRecord::a(target, ip));
    truth.front_ips.push_back(ip);
    truth.uses_azure_cdn = true;
  }

  // --- domain construction ------------------------------------------------
  std::string pick_subdomain_prefix(std::set<std::string>& used,
                                    bool& discoverable) {
    const auto& words = dns::default_wordlist();
    for (int attempt = 0; attempt < 24; ++attempt) {
      // Zipf over the wordlist keeps www/m/ftp/cdn on top; a 10% tail of
      // unguessable names reproduces the brute-force lower bound.
      if (rng_.chance(0.10)) {
        const auto exotic =
            util::fmt("x{}q{}", rng_.next_below(100000), used.size());
        if (used.insert(exotic).second) {
          discoverable = false;
          return exotic;
        }
        continue;
      }
      const auto idx =
          std::min<std::uint64_t>(rng_.zipf(words.size(), 1.05) - 1,
                                  words.size() - 1);
      if (used.insert(words[idx]).second) {
        discoverable = true;
        return words[idx];
      }
    }
    discoverable = false;
    const auto fallback = util::fmt("deep{}", used.size());
    used.insert(fallback);
    return fallback;
  }

  FrontEnd pick_ec2_front_end() {
    const double u = rng_.uniform01();
    if (u < 0.715) return FrontEnd::kVm;
    if (u < 0.753) return FrontEnd::kElb;
    if (u < 0.7535) return FrontEnd::kBeanstalk;
    if (u < 0.7565) return FrontEnd::kHerokuElb;
    if (u < 0.8385) return FrontEnd::kHeroku;
    return FrontEnd::kOpaqueCname;
  }

  FrontEnd pick_azure_front_end() {
    const double u = rng_.uniform01();
    if (u < 0.70) return FrontEnd::kCloudService;
    if (u < 0.715) return FrontEnd::kTrafficManager;
    return FrontEnd::kOpaqueCname;
  }

  int pick_vm_count() {
    const double u = rng_.uniform01();
    if (u < 0.35) return 1;
    if (u < 0.85) return 2;
    return 3 + static_cast<int>(rng_.next_below(2));
  }

  int pick_zone_spread() {
    const double u = rng_.uniform01();
    if (u < 0.332) return 1;
    if (u < 0.777) return 2;
    return 3;
  }

  int pick_elb_proxies() {
    // 95% of ELB users see <=5 physical proxies; a rare long tail mirrors
    // m.netflix.com's 90.
    if (rng_.chance(0.01)) return 20 + static_cast<int>(rng_.next_below(70));
    return 1 + static_cast<int>(rng_.next_below(5));
  }

  void deploy_cloud_subdomain(SubdomainTruth& truth, dns::Zone& zone,
                              const std::string& account,
                              ProviderKind provider) {
    truth.on_cloud = true;
    truth.provider = provider;
    if (provider == ProviderKind::kEc2) {
      truth.front_end = pick_ec2_front_end();
      const std::string region = pick_region(ProviderKind::kEc2);
      switch (truth.front_end) {
        case FrontEnd::kVm: {
          deploy_vms(truth, zone, account, region, pick_vm_count(),
                     pick_zone_spread());
          // 3% of multi-zone subdomains span a second region.
          if (rng_.chance(0.03)) {
            const auto second = pick_region(ProviderKind::kEc2);
            if (second != region)
              deploy_vms(truth, zone, account, second, 1, 1);
          }
          break;
        }
        case FrontEnd::kElb:
          deploy_elb(truth, zone, account, region, pick_elb_proxies());
          break;
        case FrontEnd::kBeanstalk:
          deploy_beanstalk(truth, zone, account, region);
          break;
        case FrontEnd::kHerokuElb:
          deploy_heroku(truth, zone, /*with_elb=*/true, account);
          break;
        case FrontEnd::kHeroku:
          deploy_heroku(truth, zone, /*with_elb=*/false, account);
          break;
        default:
          deploy_opaque(truth, zone, account, ProviderKind::kEc2, region);
          break;
      }
      // Hybrid: an extra non-cloud A record (the EC2+Other subdomains).
      if (truth.front_end == FrontEnd::kVm && rng_.chance(0.06)) {
        zone.add(ResourceRecord::a(truth.name, other_ip()));
        truth.hybrid = true;
      }
    } else {
      truth.front_end = pick_azure_front_end();
      const std::string region = pick_region(ProviderKind::kAzure);
      switch (truth.front_end) {
        case FrontEnd::kCloudService:
          deploy_cloud_service(truth, zone, account, region,
                               /*direct_ip=*/rng_.chance(0.24));
          break;
        case FrontEnd::kTrafficManager:
          deploy_traffic_manager(truth, zone, account);
          break;
        default:
          deploy_opaque(truth, zone, account, ProviderKind::kAzure, region);
          break;
      }
      if (rng_.chance(0.08)) {
        const auto second = pick_region(ProviderKind::kAzure);
        if (second != truth.regions.front()) {
          const auto cs = cloud_services_.create(account, second);
          // A second-region A record can only coexist with an A-record
          // front end (CNAME owners admit no other data).
          if (zone.add(ResourceRecord::a(truth.name, cs.ip))) {
            truth.front_ips.push_back(cs.ip);
            truth.regions.push_back(second);
          }
        }
      }
    }
  }

  /// Generic (non-marquee) domain.
  DomainTruth make_domain(std::size_t rank, const std::string& name_text) {
    DomainTruth domain;
    domain.rank = rank;
    domain.name = Name::must_parse(name_text);
    domain.customer_country = pick_customer_country();
    customer_continent_ = continent_of_country(domain.customer_country);
    domain.axfr_open = rng_.chance(0.08);
    domain.dns_hosting = pick_dns_hosting();

    const double rank_fraction =
        static_cast<double>(rank) / world_.config_.domain_count;
    const double adoption = std::clamp(
        world_.config_.adoption_scale * 0.04 * (1.55 - 1.1 * rank_fraction),
        0.002, 0.9);
    const bool cloud_using = rng_.chance(adoption);

    // Subdomain count: heavy-tailed with mean ~7.
    int sub_count = 1 + static_cast<int>(std::min(60.0, rng_.pareto(1.0, 1.15)));

    // Provider profile for cloud-using domains (Table 3 shape).
    ProviderKind provider = ProviderKind::kEc2;
    double cloud_fraction = 0.0;
    bool mixed_providers = false;
    if (cloud_using) {
      const double u = rng_.uniform01();
      if (u < 0.081) {  // EC2 only
        cloud_fraction = 1.0;
      } else if (u < 0.942) {  // EC2 + other
        cloud_fraction = 0.15 + 0.6 * rng_.uniform01();
      } else if (u < 0.947) {  // Azure only
        provider = ProviderKind::kAzure;
        cloud_fraction = 1.0;
      } else if (u < 0.993) {  // Azure + other
        provider = ProviderKind::kAzure;
        cloud_fraction = 0.15 + 0.6 * rng_.uniform01();
      } else {  // EC2 + Azure
        mixed_providers = true;
        cloud_fraction = 0.6;
      }
      sub_count = std::max(sub_count, 2);
    }

    const auto fleet_kind = domain.dns_hosting;
    const Fleet& fleet = pick_fleet(fleet_kind);
    auto* zone = host_zone(fleet.server, domain.name, fleet.ns_names,
                           /*glue handled by fleet zone*/ {});
    if (domain.axfr_open) fleet.axfr_open_zones->insert(domain.name);

    std::set<std::string> used_prefixes;
    const std::string account = "tenant-" + name_text;
    int cloud_subs_target =
        cloud_using
            ? std::max(1, static_cast<int>(sub_count * cloud_fraction))
            : 0;
    for (int i = 0; i < sub_count; ++i) {
      SubdomainTruth truth;
      bool discoverable = true;
      const auto prefix = pick_subdomain_prefix(used_prefixes, discoverable);
      truth.name = *domain.name.child(prefix);
      truth.discoverable = discoverable;
      if (i < cloud_subs_target) {
        ProviderKind kind = provider;
        if (mixed_providers)
          kind = rng_.chance(0.5) ? ProviderKind::kEc2 : ProviderKind::kAzure;
        // ~1% of cloud subdomains are pure CDN front ends (P4).
        if (kind == ProviderKind::kEc2 && rng_.chance(0.011)) {
          truth.on_cloud = true;
          truth.provider = kind;
          truth.front_end = FrontEnd::kCdnOnly;
          deploy_cloudfront(truth, *zone);
        } else if (kind == ProviderKind::kAzure && rng_.chance(0.01)) {
          truth.on_cloud = true;
          truth.provider = kind;
          truth.front_end = FrontEnd::kCdnOnly;
          deploy_azure_cdn(truth, *zone);
        } else {
          deploy_cloud_subdomain(truth, *zone, account, kind);
        }
      } else {
        truth.front_end = FrontEnd::kOtherHosting;
        zone->add(ResourceRecord::a(truth.name, other_ip()));
      }
      domain.subdomains.push_back(std::move(truth));
    }
    return domain;
  }

  /// Marquee domain honoring the per-domain tables.
  DomainTruth make_marquee(const MarqueeSpec& spec) {
    DomainTruth domain;
    domain.rank = spec.rank;
    domain.name = Name::must_parse(spec.name);
    domain.customer_country = spec.customer_country;
    customer_continent_ = continent_of_country(domain.customer_country);
    domain.axfr_open = false;
    domain.dns_hosting = DomainTruth::DnsHosting::kExternal;

    const Fleet& fleet = pick_fleet(domain.dns_hosting);
    auto* zone = host_zone(fleet.server, domain.name, fleet.ns_names, {});
    const std::string account = std::string{"tenant-"} + spec.name;

    // Regions: first is the heavy-usage one for the provider.
    std::vector<std::string> regions;
    if (spec.provider == ProviderKind::kEc2) {
      const char* pool[] = {"ec2.us-east-1", "ec2.eu-west-1",
                            "ec2.ap-northeast-1", "ec2.us-west-1",
                            "ec2.us-west-2"};
      for (int i = 0; i < spec.region_count; ++i) regions.push_back(pool[i]);
    } else {
      const char* pool[] = {"az.us-south", "az.us-north", "az.eu-west",
                            "az.us-east", "az.ap-east"};
      for (int i = 0; i < spec.region_count; ++i) regions.push_back(pool[i]);
    }

    // Marquee subdomains must all be wordlist-discoverable: walk the
    // wordlist in order (www, m, ftp, ...) instead of sampling, so even
    // msn.com's 89 subdomains stay enumerable.
    std::set<std::string> used_prefixes;
    std::size_t next_word = 0;
    auto next_prefix = [&]() {
      const auto& words = dns::default_wordlist();
      while (next_word < words.size() &&
             !used_prefixes.insert(words[next_word]).second)
        ++next_word;
      if (next_word < words.size()) return words[next_word++];
      const auto fallback = util::fmt("extra{}", used_prefixes.size());
      used_prefixes.insert(fallback);
      return fallback;
    };
    int remaining_elb_ips = spec.elb_proxy_budget;
    int vm_left = spec.vm_front;
    int elb_left = spec.elb_front;
    int paas_left = spec.paas_front;
    int cdn_left = spec.cdn_subs;
    int k1 = spec.zones_k1, k2 = spec.zones_k2, k3 = spec.zones_k3;

    for (int i = 0; i < spec.cloud_subdomains; ++i) {
      SubdomainTruth truth;
      truth.name = *domain.name.child(next_prefix());
      truth.discoverable = true;  // marquee subdomains are all well-known
      truth.on_cloud = true;
      truth.provider = spec.provider;

      int want_zones = 1;
      if (k3 > 0) {
        want_zones = 3;
        --k3;
      } else if (k2 > 0) {
        want_zones = 2;
        --k2;
      } else if (k1 > 0) {
        --k1;
      }
      const std::string region =
          regions[static_cast<std::size_t>(i) % regions.size()];

      if (spec.provider == ProviderKind::kAzure) {
        truth.front_end = FrontEnd::kCloudService;
        deploy_cloud_service(truth, *zone, account, region,
                             /*direct_ip=*/rng_.chance(0.3));
        // For Azure marquees the k=2 plan means two *regions* (Table 10:
        // 11 of msn.com's subdomains span two regions).
        if (want_zones >= 2 && spec.region_count >= 2 &&
            zone->find(truth.name, dns::RrType::kCname).empty()) {
          const auto& second = regions[(i + 1) % regions.size()];
          if (second != region)
            deploy_cloud_service(truth, *zone, account, second,
                                 /*direct_ip=*/true);
        }
      } else if (paas_left > 0 && elb_left > 0) {
        // PaaS behind ELB (e.g. amazon.com's Beanstalk-like subdomain).
        truth.front_end = FrontEnd::kBeanstalk;
        deploy_beanstalk(truth, *zone, account, region);
        --paas_left;
        --elb_left;
      } else if (elb_left > 0) {
        truth.front_end = FrontEnd::kElb;
        const int proxies = std::max(
            1, remaining_elb_ips / std::max(1, elb_left));
        deploy_elb(truth, *zone, account, region, proxies);
        remaining_elb_ips -= proxies;
        --elb_left;
      } else if (paas_left > 0) {
        truth.front_end = FrontEnd::kHeroku;
        deploy_heroku(truth, *zone, false, account);
        --paas_left;
      } else if (vm_left > 0) {
        truth.front_end = FrontEnd::kVm;
        deploy_vms(truth, *zone, account, region, pick_vm_count(),
                   want_zones);
        --vm_left;
      } else {
        truth.front_end = FrontEnd::kOpaqueCname;
        deploy_opaque(truth, *zone, account, spec.provider, region);
      }
      if (cdn_left > 0 && spec.provider == ProviderKind::kEc2 && i == 0) {
        // The domain's CDN-using subdomain (imdb.com pattern) gets its own
        // name rather than riding on a front end.
        SubdomainTruth cdn;
        cdn.name = *domain.name.child(next_prefix());
        cdn.discoverable = true;
        cdn.on_cloud = true;
        cdn.provider = spec.provider;
        cdn.front_end = FrontEnd::kCdnOnly;
        deploy_cloudfront(cdn, *zone);
        domain.subdomains.push_back(std::move(cdn));
        --cdn_left;
      }
      domain.subdomains.push_back(std::move(truth));
    }
    // Plus a few non-cloud subdomains so the domain reads EC2+Other.
    for (int i = 0; i < 3; ++i) {
      SubdomainTruth other;
      other.name = *domain.name.child(next_prefix());
      other.discoverable = true;
      other.front_end = FrontEnd::kOtherHosting;
      zone->add(ResourceRecord::a(other.name, other_ip()));
      domain.subdomains.push_back(std::move(other));
    }
    return domain;
  }

  std::string pick_customer_country() {
    std::vector<double> weights;
    for (const auto& cw : kCustomerCountries) weights.push_back(cw.weight);
    return kCustomerCountries[rng_.weighted_pick(weights)].country;
  }

  void plant_domains() {
    std::map<std::size_t, const MarqueeSpec*> marquees;
    if (world_.config_.plant_marquee_domains) {
      for (const auto& spec : kMarquees)
        if (spec.rank <= world_.config_.domain_count)
          marquees[spec.rank] = &spec;
    }
    world_.domains_.reserve(world_.config_.domain_count);
    for (std::size_t rank = 1; rank <= world_.config_.domain_count; ++rank) {
      if (const auto it = marquees.find(rank); it != marquees.end()) {
        world_.domains_.push_back(make_marquee(*it->second));
        continue;
      }
      const char* tld = kTlds[rng_.weighted_pick(
          std::span<const double>{kTldWeights, std::size(kTldWeights)})];
      world_.domains_.push_back(
          make_domain(rank, util::fmt("w{}site.{}", rank, tld)));
    }
  }

  void index_subdomains() {
    auto& index = world_.subdomain_index_;
    std::size_t total = 0;
    for (const auto& domain : world_.domains_) total += domain.subdomains.size();
    index.clear();
    index.reserve(total);
    for (std::size_t d = 0; d < world_.domains_.size(); ++d) {
      const auto& domain = world_.domains_[d];
      for (std::size_t s = 0; s < domain.subdomains.size(); ++s)
        index.emplace_back(static_cast<std::uint32_t>(d),
                           static_cast<std::uint32_t>(s));
    }
    const auto name_of =
        [this](const std::pair<std::uint32_t, std::uint32_t>& e)
        -> const dns::Name& {
      return world_.domains_[e.first].subdomains[e.second].name;
    };
    // Stable sort + keep-last dedup reproduces the old map semantics
    // exactly: if a name was ever inserted twice, the later (d, s) won.
    std::stable_sort(index.begin(), index.end(),
                     [&](const auto& a, const auto& b) {
                       return dns::Name::canonical_less(name_of(a),
                                                        name_of(b));
                     });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
      const bool last_of_run =
          i + 1 == index.size() ||
          dns::Name::canonical_less(name_of(index[i]), name_of(index[i + 1]));
      if (last_of_run) index[kept++] = index[i];
    }
    index.resize(kept);

    auto& by_name = world_.domain_index_;
    by_name.resize(world_.domains_.size());
    for (std::size_t d = 0; d < by_name.size(); ++d)
      by_name[d] = static_cast<std::uint32_t>(d);
    std::sort(by_name.begin(), by_name.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return dns::Name::canonical_less(world_.domains_[a].name,
                                                 world_.domains_[b].name);
              });
  }

  World& world_;
  util::Rng rng_;

  cloud::ElbManager elbs_;
  cloud::HerokuManager heroku_;
  cloud::BeanstalkManager beanstalk_;
  cloud::CloudFrontManager cloudfront_;
  cloud::CloudServiceManager cloud_services_;
  cloud::TrafficManagerManager traffic_manager_;

  std::shared_ptr<dns::AuthoritativeServer> root_server_;
  dns::Zone* root_zone_ = nullptr;
  std::map<std::string, std::shared_ptr<dns::AuthoritativeServer>>
      tld_servers_;
  std::map<std::string, dns::Zone*> tld_zones_;

  std::shared_ptr<dns::AuthoritativeServer> infra_server_;
  dns::Zone* amazonaws_zone_ = nullptr;
  dns::Zone* beanstalk_zone_ = nullptr;
  dns::Zone* heroku_zone_ = nullptr;
  dns::Zone* herokuapp_zone_ = nullptr;
  dns::Zone* cloudfront_zone_ = nullptr;
  dns::Zone* cloudapp_zone_ = nullptr;
  dns::Zone* tm_zone_ = nullptr;
  dns::Zone* msecnd_zone_ = nullptr;
  dns::Zone* opaque_zone_ = nullptr;

  std::map<DomainTruth::DnsHosting, std::vector<Fleet>> fleets_;
  std::shared_ptr<std::map<Name, std::vector<Name>>> tm_members_;

  std::string customer_continent_;
  std::uint32_t other_counter_ = 1;
  std::uint32_t infra_counter_ = 1;
  std::uint64_t opaque_counter_ = 1;
  std::uint64_t azure_cdn_counter_ = 1;
};

World::World(WorldConfig config) : config_(config) {
  obs::Span span{"synth.world.build"};
  ec2_ = std::make_unique<cloud::Provider>(
      cloud::Provider::make_ec2(config.seed ^ 0xEC2));
  azure_ = std::make_unique<cloud::Provider>(
      cloud::Provider::make_azure(config.seed ^ 0xA2));
  Builder{*this}.build();
  obs::counter("synth.world.builds").inc();
  obs::counter("synth.world.domains").inc(domains_.size());
  obs::log_debug("synth.world", "built world: {} domains, seed {}",
                 domains_.size(), config.seed);
}

const DomainTruth* World::domain(std::string_view name) const {
  const auto parsed = dns::Name::parse(name);
  if (!parsed) return nullptr;
  const auto it = std::lower_bound(
      domain_index_.begin(), domain_index_.end(), *parsed,
      [&](std::uint32_t d, const dns::Name& n) {
        return dns::Name::canonical_less(domains_[d].name, n);
      });
  if (it == domain_index_.end() || !(domains_[*it].name == *parsed))
    return nullptr;
  return &domains_[*it];
}

dns::Resolver World::make_resolver(net::Ipv4 client_address) const {
  dns::Resolver::Options options;
  options.root_servers = root_servers_;
  options.client_address = client_address;
  dns::DnsTransport& transport =
      transport_override_ ? *transport_override_ : network_;
  return dns::Resolver{transport, options};
}

const SubdomainTruth* World::subdomain_truth(const dns::Name& name) const {
  const auto it = std::lower_bound(
      subdomain_index_.begin(), subdomain_index_.end(), name,
      [&](const std::pair<std::uint32_t, std::uint32_t>& e,
          const dns::Name& n) {
        return dns::Name::canonical_less(
            domains_[e.first].subdomains[e.second].name, n);
      });
  if (it == subdomain_index_.end()) return nullptr;
  const SubdomainTruth& truth = domains_[it->first].subdomains[it->second];
  return truth.name == name ? &truth : nullptr;
}

std::vector<const SubdomainTruth*> World::cloud_subdomains() const {
  std::vector<const SubdomainTruth*> out;
  for (const auto& d : domains_)
    for (const auto& s : d.subdomains)
      if (s.on_cloud) out.push_back(&s);
  return out;
}

}  // namespace cs::synth
