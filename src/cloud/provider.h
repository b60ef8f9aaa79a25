#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix_set.h"
#include "util/geo.h"
#include "util/rng.h"

/// Simulated IaaS providers (EC2 and Azure, 2013-era shape).
///
/// This is the stand-in for the real clouds the paper measured. It owns:
///  - regions with geographic locations and *published* public IP ranges
///    (the lists the paper matched DNS answers against),
///  - availability zones with zone-correlated internal /16 networks (the
///    structure the address-proximity cartography of §4.3 exploits),
///  - instance launch with per-account zone labels that are PERMUTED per
///    account, reproducing the real-EC2 property that account A's
///    "us-east-1a" may be account B's "us-east-1c",
///  - a CloudFront-like CDN address space distinct from EC2's ranges.
///
/// Ground-truth accessors let experiments score the estimators exactly.
///
/// A Provider is a value: copying one snapshots its instances and address
/// allocators, and launches into the copy leave the original untouched.
/// That is how a stage launches its own fleet without shifting anyone
/// else's world (the immutable published-range trie is shared by copies).
namespace cs::cloud {

enum class ProviderKind { kEc2, kAzure };

std::string to_string(ProviderKind kind);

/// A geographically distinct data center.
struct Region {
  std::string name;          ///< e.g. "ec2.us-east-1"
  util::Location location;   ///< geo coordinates + country/continent
  int zone_count = 1;        ///< Azure regions have 1 (no zone concept)
  std::vector<net::Cidr> public_blocks;
};

/// One virtual machine (or ELB proxy / PaaS node — they are all instances
/// at the addressing level).
struct Instance {
  std::uint64_t id = 0;
  ProviderKind provider = ProviderKind::kEc2;
  std::string region;
  int zone = 0;  ///< physical zone index (ground truth)
  std::string account;
  std::string type;  ///< "m1.medium", "elb-proxy", ...
  net::Ipv4 public_ip;
  net::Ipv4 internal_ip;
};

struct LaunchRequest {
  std::string account;
  std::string region;
  /// Zone *label* index as the account sees it ('a' == 0); -1 lets the
  /// provider pick. Labels are translated per account to physical zones.
  int zone_label = -1;
  std::string type = "m1.medium";
};

class Provider {
 public:
  /// The eight 2013 EC2 regions with synthetic-but-shaped address plans.
  static Provider make_ec2(std::uint64_t seed);
  /// The eight 2013 Azure regions (single-zone).
  static Provider make_azure(std::uint64_t seed);

  ProviderKind kind() const noexcept { return kind_; }
  const std::vector<Region>& regions() const noexcept { return regions_; }
  const Region* region(std::string_view name) const;

  /// The published public ranges: block -> region name. This is what the
  /// analysis pipeline treats as the downloaded range list.
  const net::PrefixMap<std::string>& published_ranges() const noexcept {
    return *public_ranges_;
  }
  /// Region attribution for an address (nullopt if outside the cloud).
  std::optional<std::string> region_of(net::Ipv4 addr) const;

  /// CDN address block (CloudFront analogue; EC2 only). Distinct from the
  /// EC2 ranges, matching the paper's observation.
  const net::Cidr& cdn_block() const noexcept { return cdn_block_; }
  net::Ipv4 allocate_cdn_ip();

  /// Launches an instance; throws std::invalid_argument for an unknown
  /// region or out-of-range zone label.
  const Instance& launch(const LaunchRequest& request);

  const Instance* find_by_public_ip(net::Ipv4 addr) const;
  const Instance* find_by_internal_ip(net::Ipv4 addr) const;

  /// The region-internal DNS view: public IP -> internal IP of the same
  /// instance (the paper resolved this from probe instances in-region).
  std::optional<net::Ipv4> internal_ip_of(net::Ipv4 public_ip) const;

  /// Ground truth: physical zone of an instance address.
  std::optional<int> zone_of_public_ip(net::Ipv4 addr) const;

  /// Ground truth: physical zone that a /16 internal block belongs to.
  std::optional<int> zone_of_internal_block(net::Ipv4 any_addr_in_block) const;

  /// Translates an account's zone label index to the physical zone. The
  /// permutation is stable per (account, region).
  int physical_zone(const std::string& account, const std::string& region,
                    int zone_label) const;

  std::size_t instance_count() const noexcept { return instances_.size(); }
  const std::deque<Instance>& instances() const noexcept { return instances_; }

 private:
  Provider(ProviderKind kind, std::uint64_t seed, std::vector<Region> regions,
           net::Cidr cdn_block);

  struct RegionState {
    std::size_t region_index = 0;
    /// Next offset inside public_blocks for address assignment.
    std::size_t next_public_offset = 0;
    /// /16 internal blocks (second octet values) owned per zone.
    std::vector<std::vector<int>> zone_slash16s;
    /// Next host offset within each /16 (keyed by second octet).
    std::map<int, std::uint32_t> next_host;
    std::uint64_t round_robin = 0;
  };

  net::Ipv4 allocate_public_ip(const Region& region, RegionState& state);
  net::Ipv4 allocate_internal_ip(RegionState& state, int zone,
                                 util::Rng& rng);

  ProviderKind kind_;
  std::uint64_t seed_;
  std::vector<Region> regions_;
  std::shared_ptr<const net::PrefixMap<std::string>> public_ranges_;
  net::Cidr cdn_block_;
  std::uint32_t next_cdn_offset_ = 16;  // leave room for NS addresses

  std::deque<Instance> instances_;
  /// Address -> index into instances_ (indices, not pointers, so a copy's
  /// lookups resolve into the copy's own instances).
  std::unordered_map<std::uint32_t, std::size_t> by_public_ip_;
  std::unordered_map<std::uint32_t, std::size_t> by_internal_ip_;
  std::unordered_map<std::string, RegionState> region_state_;
  /// (second octet of internal /16) -> physical zone, global across regions
  /// because each region owns a disjoint second-octet range.
  std::map<int, int> slash16_zone_;
  std::uint64_t next_instance_id_ = 1;
  util::Rng rng_;
};

}  // namespace cs::cloud
