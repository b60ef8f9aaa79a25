#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "internet/model.h"

/// Latency-based zone identification (§4.3): probe instances in each
/// zone TCP-ping a target; the min RTT per zone is compared against a
/// threshold T. Same-zone RTT (~0.5 ms) sits well under T = 1.1 ms while
/// cross-zone RTT (1.2+ ms) sits above, so the zone whose probes are
/// uniquely fast wins; ties and slow minima yield "unknown".
namespace cs::carto {

class LatencyZoneEstimator {
 public:
  struct Options {
    std::uint64_t seed = 7;
    double threshold_ms = 1.1;
  };

  /// Launches the probe fleet (mutates the provider).
  LatencyZoneEstimator(cloud::Provider& ec2, internet::WideAreaModel& model,
                       Options options);

  struct Estimate {
    bool responded = false;
    std::optional<int> zone_label;  ///< probe-account label space
  };

  /// Estimates the zone of one target public IP in `region`.
  Estimate estimate(net::Ipv4 target_public_ip, const std::string& region);

  /// Labels with live probe instances for a region.
  std::vector<int> probe_labels(const std::string& region) const;

  int label_to_physical(const std::string& region, int label) const;

 private:
  cloud::Provider& ec2_;
  internet::WideAreaModel& model_;
  Options options_;
  /// region -> label -> probe instance ids.
  std::map<std::string, std::map<int, std::vector<const cloud::Instance*>>>
      probes_;
  double clock_ = 0.0;  ///< advances between probe rounds
};

}  // namespace cs::carto
