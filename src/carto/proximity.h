#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "util/rng.h"

/// Address-proximity zone identification (§4.3, after Ristenpart et al.):
/// sample instances from several accounts, exploit the fact that one
/// internal /16 holds instances of a single zone, and merge the accounts'
/// inconsistent zone *labels* by finding, per account pair, the label
/// permutation that maximizes /16 agreement.
///
/// The estimator's output labels live in the canonical account's label
/// space (as the paper's did); `label_to_physical` can translate them for
/// scoring against simulator ground truth.
namespace cs::carto {

class ProximityEstimator {
 public:
  struct Options {
    std::uint64_t seed = 99;
    /// Total sampled instances across accounts and regions (the paper
    /// accumulated 5096).
    std::size_t total_samples = 900;
  };

  /// Launches the sample instances (mutates the provider) and calibrates
  /// the merged /16 -> zone-label map.
  ProximityEstimator(cloud::Provider& ec2, Options options);

  /// Zone label (canonical account space) for a public instance address;
  /// nullopt when the instance is unknown or its /16 was never sampled.
  std::optional<int> zone_of(net::Ipv4 public_ip) const;

  /// Same, for an already-known internal address.
  std::optional<int> zone_of_internal(net::Ipv4 internal_ip) const;

  /// Fraction of this region's observed instance /16s that are labeled.
  double coverage(const std::string& region,
                  const std::vector<net::Ipv4>& public_ips) const;

  /// Figure 7: the sampled (internal address, merged label) map.
  struct MapPoint {
    net::Ipv4 internal_ip;
    int merged_label;
  };
  std::vector<MapPoint> sample_map() const;

  /// Translates a canonical-space label to the physical zone (uses the
  /// provider's account permutation; for scoring only).
  int label_to_physical(const std::string& region, int label) const;

  std::size_t labeled_blocks() const noexcept { return block_label_.size(); }

 private:
  struct Sample {
    std::string account;
    std::string region;
    int label;  ///< the account's own zone label
    net::Ipv4 internal_ip;
  };

  void calibrate(const std::vector<Sample>& samples);

  cloud::Provider& ec2_;
  Options options_;
  /// internal /16 (second octet) -> canonical-space label.
  std::map<int, int> block_label_;
};

}  // namespace cs::carto
