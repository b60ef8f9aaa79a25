#pragma once

#include <optional>
#include <string>
#include <vector>

#include "internet/model.h"
#include "internet/vantage.h"

/// §5.1: wide-area performance — the PlanetLab measurement campaign and
/// the optimal-k-region analysis (Figures 9-12).
namespace cs::analysis {

/// Raw campaign output: samples[v][r][round] (nullopt = lost / timed out).
struct Campaign {
  std::vector<internet::VantagePoint> vantages;
  std::vector<std::string> region_names;
  double round_seconds = 900.0;
  std::vector<std::vector<std::vector<std::optional<double>>>> rtt_ms;
  std::vector<std::vector<std::vector<std::optional<double>>>> tput_kbps;
  /// Rounds each vantage sat out entirely (PlanetLab-node dropout,
  /// injected by cs::fault); every consumer already treats the resulting
  /// nullopt samples as lost probes.
  std::vector<std::uint64_t> dropped_rounds;

  std::size_t rounds() const {
    return rtt_ms.empty() || rtt_ms[0].empty() ? 0 : rtt_ms[0][0].size();
  }
  std::uint64_t total_dropped_rounds() const {
    std::uint64_t total = 0;
    for (const auto n : dropped_rounds) total += n;
    return total;
  }
};

/// Runs the §5.1 methodology: every 15 minutes for `days`, each vantage
/// TCP-pings and HTTP-GETs instances in each region.
Campaign run_campaign(internet::WideAreaModel& model,
                      const std::vector<internet::VantagePoint>& vantages,
                      const std::vector<const cloud::Region*>& regions,
                      double days);

/// Figure 9/10: average latency/throughput per (vantage, region).
struct ClientRegionAverages {
  std::vector<std::string> vantage_names;
  std::vector<std::string> region_names;
  /// [vantage][region], 0 when no sample survived.
  std::vector<std::vector<double>> avg_rtt_ms;
  std::vector<std::vector<double>> avg_tput_kbps;
};
ClientRegionAverages average_matrix(const Campaign& campaign);

/// Figure 12: optimal k-region deployment for k = 1..regions. For each k
/// the best subset (clients always routed to their momentary best member)
/// and the resulting client-average metric.
struct KRegionResult {
  int k = 0;
  std::vector<std::string> best_regions;
  double avg_rtt_ms = 0.0;       ///< for the latency-optimal subset
  double avg_tput_kbps = 0.0;    ///< for the throughput-optimal subset
  std::vector<std::string> best_regions_tput;
};
std::vector<KRegionResult> optimal_k_regions(const Campaign& campaign);

/// Figure 11: per-round best region for one vantage (region flapping).
struct FlappingSeries {
  std::vector<std::string> region_names;
  /// Per round: index into region_names of the winner (-1 = all lost).
  std::vector<int> winner;
  /// Per round per region RTT (0 when lost).
  std::vector<std::vector<double>> rtt_ms;
  std::size_t winner_changes = 0;
};
FlappingSeries flapping_series(const Campaign& campaign,
                               std::string_view vantage_name);

}  // namespace cs::analysis
