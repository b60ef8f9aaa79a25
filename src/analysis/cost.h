#pragma once

#include <string>
#include <vector>

#include "analysis/widearea.h"

/// Deployment cost/latency frontier (§5.1's closing caveat: "cloud
/// providers charge for inter-region network traffic, potentially causing
/// tenants to incur additional charges when switching to a multi-region
/// deployment", plus the S3 single-region replication constraint).
///
/// For each k we take Figure 12's latency-optimal k-region subset and
/// price it with a 2013-flavored cost model: per-instance hours, internet
/// egress (unchanged by k), and inter-region replication traffic that
/// grows with k-1 copies of the dataset. The output is the frontier a
/// tenant actually chooses on.
namespace cs::analysis {

struct DeploymentCost {
  int k = 0;
  std::vector<std::string> regions;
  double avg_rtt_ms = 0.0;
  double compute_usd = 0.0;
  double egress_usd = 0.0;
  double replication_usd = 0.0;
  double total_usd = 0.0;
  /// Marginal dollars per millisecond of average latency saved relative
  /// to the k-1 deployment (infinity encoded as <0 when no gain).
  double usd_per_ms_saved = 0.0;
};

/// Prices the latency-optimal deployment for every k in the campaign.
std::vector<DeploymentCost> cost_latency_frontier(const Campaign& campaign);

}  // namespace cs::analysis
