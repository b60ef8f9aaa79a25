#include "carto/proximity.h"

#include <algorithm>
#include <numeric>

namespace cs::carto {
namespace {

/// Accounts the samples are launched from, round robin; the paper merged
/// the zone labels of several accounts.
constexpr std::size_t kAccounts = 10;
/// The account whose label space the merged map uses; it is also the
/// latency estimator's probe account, so both speak one label space.
constexpr const char* kCanonicalAccount = "carto-main";

}  // namespace

ProximityEstimator::ProximityEstimator(cloud::Provider& ec2, Options options)
    : ec2_(ec2), options_(std::move(options)) {
  util::Rng rng{options_.seed};
  std::vector<Sample> samples;
  samples.reserve(options_.total_samples);

  // Spread samples across accounts and regions (heavier in big regions,
  // mirroring where tenants actually launch).
  const auto& regions = ec2_.regions();
  std::vector<double> region_weights;
  for (const auto& region : regions)
    region_weights.push_back(region.name == "ec2.us-east-1" ? 6.0 : 1.0);

  for (std::size_t i = 0; i < options_.total_samples; ++i) {
    const std::size_t account_idx = i % kAccounts;
    const std::string account =
        account_idx == 0 ? kCanonicalAccount
                         : "carto-acct-" + std::to_string(account_idx);
    const auto& region = regions[rng.weighted_pick(region_weights)];
    const int label = static_cast<int>(rng.next_below(region.zone_count));
    const auto& inst = ec2_.launch({.account = account,
                                    .region = region.name,
                                    .zone_label = label,
                                    .type = "t1.micro"});
    samples.push_back({account, region.name, label, inst.internal_ip});
  }
  calibrate(samples);
}

void ProximityEstimator::calibrate(const std::vector<Sample>& samples) {
  // Work region by region: labels are only meaningful within a region.
  std::map<std::string, std::vector<const Sample*>> by_region;
  for (const auto& s : samples) by_region[s.region].push_back(&s);

  for (const auto& [region_name, region_samples] : by_region) {
    const auto* region = ec2_.region(region_name);
    const int zones = region ? region->zone_count : 1;

    // Group samples per account.
    std::map<std::string, std::vector<const Sample*>> by_account;
    for (const auto* s : region_samples) by_account[s->account].push_back(s);

    // Seed the merged map from the canonical account.
    std::map<int, int> merged;  // /16 second octet -> canonical label
    if (const auto it = by_account.find(kCanonicalAccount);
        it != by_account.end()) {
      for (const auto* s : it->second)
        merged[s->internal_ip.octet(1)] = s->label;
    }

    // Greedy pairwise merging: for each further account, pick the label
    // permutation maximizing /16 agreement with the merged map, then fold
    // its samples in (the paper's iterative approach).
    for (const auto& [account, account_samples] : by_account) {
      if (account == kCanonicalAccount) continue;
      std::vector<int> perm(zones);
      std::iota(perm.begin(), perm.end(), 0);
      std::vector<int> best_perm = perm;
      int best_score = -1;
      do {
        int score = 0;
        for (const auto* s : account_samples) {
          const auto it = merged.find(s->internal_ip.octet(1));
          if (it != merged.end() && it->second == perm[s->label]) ++score;
        }
        if (score > best_score) {
          best_score = score;
          best_perm = perm;
        }
      } while (std::next_permutation(perm.begin(), perm.end()));

      for (const auto* s : account_samples)
        merged.emplace(s->internal_ip.octet(1), best_perm[s->label]);
    }

    for (const auto& [block, label] : merged) block_label_[block] = label;
  }
}

std::optional<int> ProximityEstimator::zone_of(net::Ipv4 public_ip) const {
  const auto internal = ec2_.internal_ip_of(public_ip);
  if (!internal) return std::nullopt;
  return zone_of_internal(*internal);
}

std::optional<int> ProximityEstimator::zone_of_internal(
    net::Ipv4 internal_ip) const {
  if (internal_ip.octet(0) != 10) return std::nullopt;  // not EC2-internal
  const auto it = block_label_.find(internal_ip.octet(1));
  if (it == block_label_.end()) return std::nullopt;
  return it->second;
}

double ProximityEstimator::coverage(
    const std::string& region, const std::vector<net::Ipv4>& public_ips)
    const {
  (void)region;
  if (public_ips.empty()) return 0.0;
  std::size_t known = 0;
  for (const auto ip : public_ips)
    if (zone_of(ip)) ++known;
  return static_cast<double>(known) / static_cast<double>(public_ips.size());
}

std::vector<ProximityEstimator::MapPoint> ProximityEstimator::sample_map()
    const {
  std::vector<MapPoint> points;
  for (const auto& [block, label] : block_label_) {
    points.push_back(
        {net::Ipv4{static_cast<std::uint32_t>((10u << 24) | (block << 16))},
         label});
  }
  return points;
}

int ProximityEstimator::label_to_physical(const std::string& region,
                                          int label) const {
  return ec2_.physical_zone(kCanonicalAccount, region, label);
}

}  // namespace cs::carto
