#include "analysis/cost.h"

namespace cs::analysis {
namespace {

// 2013 EC2 list prices, and one illustrative tenant's demand: the paper
// names inter-region charges as the cost of going multi-region but prices
// nothing, so only the frontier's shape matters.
constexpr double kInstanceHourUsd = 0.12;  ///< m1.medium on-demand
constexpr double kInstancesPerRegion = 2.0;  ///< front-end redundancy
constexpr double kEgressPerGbUsd = 0.12;
constexpr double kInterRegionPerGbUsd = 0.02;
constexpr double kHoursPerMonth = 730.0;
/// Client demand served per month (egress) in GB.
constexpr double kDemandGbPerMonth = 2000.0;
/// Dataset bytes rewritten per month, copied to each extra region.
constexpr double kReplicationGbPerMonth = 500.0;

}  // namespace

std::vector<DeploymentCost> cost_latency_frontier(const Campaign& campaign) {
  const auto k_results = optimal_k_regions(campaign);
  std::vector<DeploymentCost> frontier;
  for (const auto& result : k_results) {
    DeploymentCost cost;
    cost.k = result.k;
    cost.regions = result.best_regions;
    cost.avg_rtt_ms = result.avg_rtt_ms;
    cost.compute_usd =
        result.k * kInstancesPerRegion * kInstanceHourUsd * kHoursPerMonth;
    cost.egress_usd = kDemandGbPerMonth * kEgressPerGbUsd;
    cost.replication_usd =
        (result.k - 1) * kReplicationGbPerMonth * kInterRegionPerGbUsd;
    cost.total_usd =
        cost.compute_usd + cost.egress_usd + cost.replication_usd;
    if (!frontier.empty()) {
      const auto& prev = frontier.back();
      const double ms_saved = prev.avg_rtt_ms - cost.avg_rtt_ms;
      const double extra_usd = cost.total_usd - prev.total_usd;
      cost.usd_per_ms_saved = ms_saved > 1e-9 ? extra_usd / ms_saved : -1.0;
    }
    frontier.push_back(std::move(cost));
  }
  return frontier;
}

}  // namespace cs::analysis
