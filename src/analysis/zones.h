#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "carto/combined.h"
#include "util/cdf.h"

/// §4.3: availability-zone usage — the latency-method evaluation
/// (Tables 11-13) and the zone-usage tables (Table 14/15, Figure 8).
namespace cs::analysis {

/// Table 12 row: latency-method outcome for one region.
struct LatencyZoneRow {
  std::string region;
  std::size_t target_ips = 0;
  std::size_t responded = 0;
  std::map<int, std::size_t> per_zone;  ///< label -> identified count
  std::size_t unknown = 0;

  double unknown_rate() const {
    return responded ? static_cast<double>(unknown) / responded : 0.0;
  }
};

/// Table 13 row: latency vs proximity agreement for one region.
struct VeracityRow {
  std::string region;
  std::size_t total = 0;
  std::size_t match = 0;
  std::size_t unknown = 0;  ///< one or both methods undecided
  std::size_t mismatch = 0;

  double error_rate() const {
    const auto decided = total - unknown;
    return decided ? static_cast<double>(mismatch) / decided : 0.0;
  }
};

struct ZoneStudy {
  /// The distinct EC2 instance addresses (VM/ELB/PaaS front ends) per
  /// region that were probed — Table 12's target populations.
  std::vector<LatencyZoneRow> latency_rows;
  std::vector<VeracityRow> veracity_rows;
  /// Extra (beyond the paper): both methods scored against simulator
  /// ground truth.
  double latency_accuracy_vs_truth = 0.0;
  double proximity_accuracy_vs_truth = 0.0;

  /// Combined-method zone per subdomain, parallel to
  /// dataset.cloud_subdomains: physical-zone sets (empty when unknown).
  std::vector<std::set<int>> subdomain_zones;
  std::vector<std::string> subdomain_primary_region;

  /// Table 14: per (region, zone label) -> domains / subdomains.
  struct ZoneUsage {
    std::map<int, std::set<std::string>> domains;
    std::map<int, std::size_t> subdomains;
  };
  std::map<std::string, ZoneUsage> usage_per_region;

  /// Figure 8 inputs.
  util::Cdf zones_per_subdomain;
  util::Cdf zones_per_domain;  ///< average over subdomains
  double fraction_one_zone = 0.0;
  double fraction_two_zones = 0.0;
  double fraction_three_plus = 0.0;
  /// Identification rate across all probed EC2 instances.
  double combined_identified_fraction = 0.0;
};

/// Runs the full zone study: probes every distinct EC2 front-end address
/// in the dataset with both estimators, evaluates them, and aggregates
/// zone usage with the combined method.
ZoneStudy run_zone_study(const AlexaDataset& dataset,
                         const CloudRanges& ranges, const synth::World& world,
                         carto::ProximityEstimator& proximity,
                         carto::LatencyZoneEstimator& latency);

}  // namespace cs::analysis
