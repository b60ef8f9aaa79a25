#include "cloud/provider.h"

#include <algorithm>
#include <stdexcept>

namespace cs::cloud {
namespace {

constexpr int kSlash16sPerRegion = 32;

Region make_region(std::string name, double lat, double lon,
                   std::string country, std::string continent, int zones,
                   std::vector<std::string> blocks) {
  Region r;
  r.name = std::move(name);
  r.location = {{lat, lon}, std::move(country), std::move(continent)};
  r.zone_count = zones;
  for (const auto& b : blocks) r.public_blocks.push_back(*net::Cidr::parse(b));
  return r;
}

}  // namespace

std::string to_string(ProviderKind kind) {
  return kind == ProviderKind::kEc2 ? "EC2" : "Azure";
}

Provider Provider::make_ec2(std::uint64_t seed) {
  // Synthetic address plan shaped like the 2013 published EC2 ranges: a
  // few large blocks per region, heavily skewed toward US East.
  std::vector<Region> regions = {
      make_region("ec2.us-east-1", 38.95, -77.45, "US", "NA", 3,
                  {"54.0.0.0/11", "23.20.0.0/14"}),
      make_region("ec2.eu-west-1", 53.33, -6.25, "IE", "EU", 3,
                  {"54.32.0.0/12"}),
      make_region("ec2.us-west-1", 37.35, -121.95, "US", "NA", 2,
                  {"54.48.0.0/13"}),
      make_region("ec2.us-west-2", 45.84, -119.70, "US", "NA", 3,
                  {"54.56.0.0/13"}),
      make_region("ec2.ap-southeast-1", 1.35, 103.99, "SG", "AS", 2,
                  {"54.64.0.0/13"}),
      make_region("ec2.ap-northeast-1", 35.62, 139.74, "JP", "AS", 2,
                  {"54.72.0.0/13"}),
      make_region("ec2.sa-east-1", -23.55, -46.63, "BR", "SA", 2,
                  {"54.80.0.0/13"}),
      make_region("ec2.ap-southeast-2", -33.87, 151.21, "AU", "OC", 2,
                  {"54.88.0.0/13"}),
  };
  return Provider{ProviderKind::kEc2, seed, std::move(regions),
                  *net::Cidr::parse("205.251.192.0/18")};
}

Provider Provider::make_azure(std::uint64_t seed) {
  std::vector<Region> regions = {
      make_region("az.us-east", 38.95, -77.45, "US", "NA", 1,
                  {"138.91.0.0/16"}),
      make_region("az.us-west", 37.50, -122.00, "US", "NA", 1,
                  {"138.92.0.0/16"}),
      make_region("az.us-north", 41.88, -87.63, "US", "NA", 1,
                  {"138.93.0.0/16"}),
      make_region("az.us-south", 29.42, -98.49, "US", "NA", 1,
                  {"138.94.0.0/16"}),
      make_region("az.eu-west", 53.33, -6.25, "IE", "EU", 1,
                  {"138.95.0.0/16"}),
      make_region("az.eu-north", 52.37, 4.90, "NL", "EU", 1,
                  {"138.96.0.0/16"}),
      make_region("az.ap-southeast", 1.35, 103.99, "SG", "AS", 1,
                  {"138.97.0.0/16"}),
      make_region("az.ap-east", 22.32, 114.17, "HK", "AS", 1,
                  {"138.98.0.0/16"}),
  };
  // Azure's CDN shares the provider ranges (per the paper), so the distinct
  // CDN block goes unused for Azure; give it an empty-ish sentinel block.
  return Provider{ProviderKind::kAzure, seed, std::move(regions),
                  *net::Cidr::parse("138.99.0.0/24")};
}

Provider::Provider(ProviderKind kind, std::uint64_t seed,
                   std::vector<Region> regions, net::Cidr cdn_block)
    : kind_(kind),
      seed_(seed),
      regions_(std::move(regions)),
      cdn_block_(cdn_block),
      rng_(seed ^ (kind == ProviderKind::kEc2 ? 0xEC2ULL : 0xA2BEULL)) {
  // Publish ranges and carve internal /16 space. Region i owns second
  // octets [i*32, i*32+32) of 10.0.0.0/8, pre-dealt to zones in a shuffled
  // interleaving (this is what makes Figure 7's banding non-trivial).
  auto ranges = std::make_shared<net::PrefixMap<std::string>>();
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const auto& region = regions_[i];
    for (const auto& block : region.public_blocks)
      ranges->insert(block, region.name);

    RegionState state;
    state.region_index = i;
    state.zone_slash16s.resize(region.zone_count);
    std::vector<int> octets(kSlash16sPerRegion);
    for (int k = 0; k < kSlash16sPerRegion; ++k)
      octets[k] = static_cast<int>(i) * kSlash16sPerRegion + k;
    // Shuffle, then deal round-robin so each zone's /16s are scattered.
    for (int k = kSlash16sPerRegion - 1; k > 0; --k)
      std::swap(octets[k], octets[rng_.next_below(k + 1)]);
    for (int k = 0; k < kSlash16sPerRegion; ++k) {
      const int zone = k % region.zone_count;
      state.zone_slash16s[zone].push_back(octets[k]);
      slash16_zone_[octets[k]] = zone;
    }
    region_state_[region.name] = std::move(state);
  }
  public_ranges_ = std::move(ranges);
}

const Region* Provider::region(std::string_view name) const {
  for (const auto& r : regions_)
    if (r.name == name) return &r;
  return nullptr;
}

std::optional<std::string> Provider::region_of(net::Ipv4 addr) const {
  return public_ranges_->lookup(addr);
}

net::Ipv4 Provider::allocate_cdn_ip() {
  if (next_cdn_offset_ >= cdn_block_.size())
    throw std::runtime_error{"Provider: CDN block exhausted"};
  return cdn_block_.at(next_cdn_offset_++);
}

net::Ipv4 Provider::allocate_public_ip(const Region& region,
                                       RegionState& state) {
  std::uint64_t offset = state.next_public_offset++;
  for (const auto& block : region.public_blocks) {
    if (offset < block.size()) return block.at(offset);
    offset -= block.size();
  }
  throw std::runtime_error{"Provider: public ranges exhausted in " +
                           region.name};
}

net::Ipv4 Provider::allocate_internal_ip(RegionState& state, int zone,
                                         util::Rng& rng) {
  auto& blocks = state.zone_slash16s.at(zone);
  // Prefer a random /16 of the zone; fall back to scanning for room.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const int octet = blocks[rng.next_below(blocks.size())];
    auto& next = state.next_host[octet];
    if (next < 65534) {
      ++next;
      return net::Ipv4{(10u << 24) | (static_cast<std::uint32_t>(octet) << 16) |
                       next};
    }
  }
  for (const int octet : blocks) {
    auto& next = state.next_host[octet];
    if (next < 65534) {
      ++next;
      return net::Ipv4{(10u << 24) | (static_cast<std::uint32_t>(octet) << 16) |
                       next};
    }
  }
  throw std::runtime_error{"Provider: internal space exhausted"};
}

const Instance& Provider::launch(const LaunchRequest& request) {
  const Region* region = this->region(request.region);
  if (!region)
    throw std::invalid_argument{"Provider::launch: unknown region " +
                                request.region};
  if (request.zone_label >= region->zone_count)
    throw std::invalid_argument{"Provider::launch: bad zone label"};

  auto& state = region_state_.at(region->name);
  int zone;
  if (request.zone_label < 0) {
    zone = static_cast<int>(state.round_robin++ %
                            static_cast<std::uint64_t>(region->zone_count));
  } else {
    zone = physical_zone(request.account, request.region, request.zone_label);
  }

  Instance inst;
  inst.id = next_instance_id_++;
  inst.provider = kind_;
  inst.region = region->name;
  inst.zone = zone;
  inst.account = request.account;
  inst.type = request.type;
  inst.public_ip = allocate_public_ip(*region, state);
  inst.internal_ip = allocate_internal_ip(state, zone, rng_);

  const std::size_t index = instances_.size();
  const Instance& stored = instances_.emplace_back(std::move(inst));
  by_public_ip_[stored.public_ip.value()] = index;
  by_internal_ip_[stored.internal_ip.value()] = index;
  return stored;
}

const Instance* Provider::find_by_public_ip(net::Ipv4 addr) const {
  const auto it = by_public_ip_.find(addr.value());
  return it == by_public_ip_.end() ? nullptr : &instances_[it->second];
}

const Instance* Provider::find_by_internal_ip(net::Ipv4 addr) const {
  const auto it = by_internal_ip_.find(addr.value());
  return it == by_internal_ip_.end() ? nullptr : &instances_[it->second];
}

std::optional<net::Ipv4> Provider::internal_ip_of(net::Ipv4 public_ip) const {
  const auto* inst = find_by_public_ip(public_ip);
  if (!inst) return std::nullopt;
  return inst->internal_ip;
}

std::optional<int> Provider::zone_of_public_ip(net::Ipv4 addr) const {
  const auto* inst = find_by_public_ip(addr);
  if (!inst) return std::nullopt;
  return inst->zone;
}

std::optional<int> Provider::zone_of_internal_block(
    net::Ipv4 any_addr_in_block) const {
  if (any_addr_in_block.octet(0) != 10) return std::nullopt;
  const auto it = slash16_zone_.find(any_addr_in_block.octet(1));
  if (it == slash16_zone_.end()) return std::nullopt;
  return it->second;
}

int Provider::physical_zone(const std::string& account,
                            const std::string& region, int zone_label) const {
  const Region* r = this->region(region);
  if (!r || zone_label < 0 || zone_label >= r->zone_count)
    throw std::invalid_argument{"Provider::physical_zone: bad arguments"};
  // Derive a stable permutation of [0, zone_count) per (account, region).
  util::Rng rng{seed_ ^ util::stable_hash(account) * 3 ^
                util::stable_hash(region)};
  std::vector<int> perm(r->zone_count);
  for (int i = 0; i < r->zone_count; ++i) perm[i] = i;
  for (int i = r->zone_count - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.next_below(i + 1)]);
  return perm[zone_label];
}

}  // namespace cs::cloud
