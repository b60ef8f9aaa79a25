#include "carto/latency_zone.h"

#include <algorithm>

namespace cs::carto {
namespace {

/// hping3-style pings per probe instance in one round.
constexpr int kProbesPerRound = 10;
/// Rounds, one per day, as the paper repeated its probes across days.
constexpr int kRounds = 5;
/// The account the probes launch from; estimates are in its label space.
constexpr const char* kProbeAccount = "carto-main";
/// m1.medium probe instances per zone; US East gets 3 more m1.small, as
/// in the paper.
constexpr int kProbeInstancesPerZone = 3;
/// The paper could not launch probes in one ap-northeast-1 zone after
/// January 2013, which drives that region's 50.7% unknown rate.
constexpr const char* kBlockedProbeRegion = "ec2.ap-northeast-1";
constexpr int kBlockedProbeLabel = 1;

}  // namespace

LatencyZoneEstimator::LatencyZoneEstimator(cloud::Provider& ec2,
                                           internet::WideAreaModel& model,
                                           Options options)
    : ec2_(ec2), model_(model), options_(std::move(options)) {
  for (const auto& region : ec2_.regions()) {
    const int per_zone = region.name == "ec2.us-east-1"
                             ? kProbeInstancesPerZone + 3
                             : kProbeInstancesPerZone;
    for (int label = 0; label < region.zone_count; ++label) {
      if (region.name == kBlockedProbeRegion && label == kBlockedProbeLabel)
        continue;
      for (int i = 0; i < per_zone; ++i) {
        const auto& probe = ec2_.launch(
            {.account = kProbeAccount,
             .region = region.name,
             .zone_label = label,
             .type = i < kProbeInstancesPerZone ? "m1.medium" : "m1.small"});
        probes_[region.name][label].push_back(&probe);
      }
    }
  }
}

std::vector<int> LatencyZoneEstimator::probe_labels(
    const std::string& region) const {
  std::vector<int> labels;
  if (const auto it = probes_.find(region); it != probes_.end())
    for (const auto& [label, instances] : it->second)
      labels.push_back(label);
  return labels;
}

LatencyZoneEstimator::Estimate LatencyZoneEstimator::estimate(
    net::Ipv4 target_public_ip, const std::string& region) {
  Estimate result;
  const auto* target = ec2_.find_by_public_ip(target_public_ip);
  if (!target || model_.instance_unresponsive(*target)) return result;
  result.responded = true;

  const auto it = probes_.find(region);
  if (it == probes_.end()) return result;

  // Min RTT per probe label over rounds x probes (both the internal and
  // public address were probed in the paper; the minimum is what counts).
  std::map<int, double> min_rtt;
  for (const auto& [label, instances] : it->second) {
    double best = 1e18;
    for (const auto* probe : instances) {
      for (int round = 0; round < kRounds; ++round) {
        for (int ping = 0; ping < kProbesPerRound; ++ping) {
          clock_ += 0.5;
          best = std::min(best, model_.instance_rtt_sample(
                                    ec2_, *probe, *target,
                                    clock_ + round * 86400.0));
        }
      }
    }
    min_rtt[label] = best;
  }
  if (min_rtt.empty()) return result;

  // Unique fastest label under the threshold wins.
  int best_label = -1;
  double best = 1e18, second = 1e18;
  for (const auto& [label, rtt] : min_rtt) {
    if (rtt < best) {
      second = best;
      best = rtt;
      best_label = label;
    } else {
      second = std::min(second, rtt);
    }
  }
  // A tie (within measurement resolution) yields unknown, as does a
  // minimum above the threshold.
  if (best >= options_.threshold_ms || second - best < 1e-3) return result;
  result.zone_label = best_label;
  return result;
}

int LatencyZoneEstimator::label_to_physical(const std::string& region,
                                            int label) const {
  return ec2_.physical_zone(kProbeAccount, region, label);
}

}  // namespace cs::carto
