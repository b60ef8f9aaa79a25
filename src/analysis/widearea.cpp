#include "analysis/widearea.h"

#include <algorithm>
#include <stdexcept>

#include "exec/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace cs::analysis {
namespace {

/// Mean of present samples; nullopt when everything was lost.
std::optional<double> mean_of(
    const std::vector<std::optional<double>>& samples) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples)
    if (s) {
      sum += *s;
      ++n;
    }
  if (!n) return std::nullopt;
  return sum / static_cast<double>(n);
}

/// Enumerates all size-k subsets of [0, n) and calls fn on each.
template <typename Fn>
void for_each_subset(std::size_t n, std::size_t k, Fn&& fn) {
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    fn(idx);
    // Advance to the next combination.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - k) {
        ++idx[i];
        for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (k == 0) return;
  }
}

}  // namespace

Campaign run_campaign(internet::WideAreaModel& model,
                      const std::vector<internet::VantagePoint>& vantages,
                      const std::vector<const cloud::Region*>& regions,
                      double days) {
  Campaign campaign;
  campaign.vantages = vantages;
  for (const auto* r : regions) campaign.region_names.push_back(r->name);
  const auto rounds = static_cast<std::size_t>(
      days * 86400.0 / campaign.round_seconds);

  campaign.rtt_ms.assign(
      vantages.size(),
      std::vector<std::vector<std::optional<double>>>(
          regions.size(), std::vector<std::optional<double>>(rounds)));
  campaign.tput_kbps = campaign.rtt_ms;
  campaign.dropped_rounds.assign(vantages.size(), 0);

  // Vantages probe in parallel: every sample is a pure function of
  // (model seed, path, time) and each task writes only its own [v] rows,
  // so the campaign matrix is identical at any CS_THREADS value. Fault
  // dropout keeps that property by drawing each vantage's offline rounds
  // from a per-vantage stream (shard = vantage index), never from shared
  // state.
  obs::Span span{"analysis.widearea.campaign"};
  const auto* plan = fault::active_plan();
  exec::parallel_for(vantages.size(), [&](std::size_t v) {
    std::vector<bool> offline;
    if (plan && plan->spec().vantage_drop > 0.0) {
      offline.resize(rounds);
      auto rng = plan->stream(fault::Kind::kVantageDrop, v);
      for (std::size_t round = 0; round < rounds; ++round) {
        offline[round] = rng.chance(plan->spec().vantage_drop);
        if (offline[round]) ++campaign.dropped_rounds[v];
      }
      static auto& dropped_metric =
          obs::counter("fault.campaign.dropped_rounds");
      dropped_metric.inc(campaign.dropped_rounds[v]);
    }
    for (std::size_t r = 0; r < regions.size(); ++r) {
      for (std::size_t round = 0; round < rounds; ++round) {
        if (!offline.empty() && offline[round]) continue;
        const double t = round * campaign.round_seconds;
        // 5 TCP pings, averaged, timeouts excluded (§5.1).
        double sum = 0.0;
        int ok = 0;
        for (int ping = 0; ping < 5; ++ping) {
          if (const auto s =
                  model.rtt_sample(vantages[v], *regions[r], t + ping))
            sum += *s, ++ok;
        }
        if (ok) campaign.rtt_ms[v][r][round] = sum / ok;
        campaign.tput_kbps[v][r][round] =
            model.throughput_sample(vantages[v], *regions[r], t + 10.0);
      }
    }
  });
  return campaign;
}

ClientRegionAverages average_matrix(const Campaign& campaign) {
  ClientRegionAverages out;
  for (const auto& v : campaign.vantages) out.vantage_names.push_back(v.name);
  out.region_names = campaign.region_names;
  out.avg_rtt_ms.assign(campaign.vantages.size(),
                        std::vector<double>(campaign.region_names.size()));
  out.avg_tput_kbps = out.avg_rtt_ms;
  for (std::size_t v = 0; v < campaign.vantages.size(); ++v) {
    for (std::size_t r = 0; r < campaign.region_names.size(); ++r) {
      out.avg_rtt_ms[v][r] = mean_of(campaign.rtt_ms[v][r]).value_or(0.0);
      out.avg_tput_kbps[v][r] =
          mean_of(campaign.tput_kbps[v][r]).value_or(0.0);
    }
  }
  return out;
}

std::vector<KRegionResult> optimal_k_regions(const Campaign& campaign) {
  const std::size_t regions = campaign.region_names.size();
  const std::size_t rounds = campaign.rounds();
  const std::size_t vantages = campaign.vantages.size();
  std::vector<KRegionResult> results;

  // Client-average of the per-round best member of the subset.
  auto score = [&](const std::vector<std::size_t>& subset, bool latency) {
    double client_sum = 0.0;
    std::size_t client_n = 0;
    for (std::size_t v = 0; v < vantages; ++v) {
      double round_sum = 0.0;
      std::size_t round_n = 0;
      for (std::size_t round = 0; round < rounds; ++round) {
        std::optional<double> best;
        for (const auto r : subset) {
          const auto& sample = latency ? campaign.rtt_ms[v][r][round]
                                       : campaign.tput_kbps[v][r][round];
          if (!sample) continue;
          if (!best || (latency ? *sample < *best : *sample > *best))
            best = sample;
        }
        if (best) {
          round_sum += *best;
          ++round_n;
        }
      }
      if (round_n) {
        client_sum += round_sum / round_n;
        ++client_n;
      }
    }
    return client_n ? client_sum / client_n
                    : (latency ? 1e18 : 0.0);
  };

  for (std::size_t k = 1; k <= regions; ++k) {
    KRegionResult result;
    result.k = static_cast<int>(k);
    // Materialize the size-k subsets in lexicographic order, score them
    // in parallel, then pick winners sequentially with strict (first
    // wins) comparisons — the same lexicographically-first tie-breaking
    // the sequential exhaustive search had.
    std::vector<std::vector<std::size_t>> subsets;
    for_each_subset(regions, k, [&](const std::vector<std::size_t>& subset) {
      subsets.push_back(subset);
    });
    struct SubsetScore {
      double rtt = 0.0;
      double tput = 0.0;
    };
    const auto scores =
        exec::parallel_map(subsets.size(), [&](std::size_t i) {
          return SubsetScore{score(subsets[i], true),
                             score(subsets[i], false)};
        });
    double best_rtt = 1e18, best_tput = -1.0;
    std::vector<std::size_t> best_lat_subset, best_tput_subset;
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      if (scores[i].rtt < best_rtt) {
        best_rtt = scores[i].rtt;
        best_lat_subset = subsets[i];
      }
      if (scores[i].tput > best_tput) {
        best_tput = scores[i].tput;
        best_tput_subset = subsets[i];
      }
    }
    result.avg_rtt_ms = best_rtt;
    result.avg_tput_kbps = best_tput;
    for (const auto r : best_lat_subset)
      result.best_regions.push_back(campaign.region_names[r]);
    for (const auto r : best_tput_subset)
      result.best_regions_tput.push_back(campaign.region_names[r]);
    results.push_back(std::move(result));
  }
  return results;
}

FlappingSeries flapping_series(const Campaign& campaign,
                               std::string_view vantage_name) {
  std::size_t v = campaign.vantages.size();
  for (std::size_t i = 0; i < campaign.vantages.size(); ++i)
    if (util::icontains(campaign.vantages[i].name, vantage_name)) {
      v = i;
      break;
    }
  if (v == campaign.vantages.size())
    throw std::invalid_argument{"flapping_series: unknown vantage " +
                                std::string{vantage_name}};

  FlappingSeries series;
  series.region_names = campaign.region_names;
  const std::size_t rounds = campaign.rounds();
  int last_winner = -1;
  for (std::size_t round = 0; round < rounds; ++round) {
    int winner = -1;
    double best = 1e18;
    std::vector<double> row(campaign.region_names.size(), 0.0);
    for (std::size_t r = 0; r < campaign.region_names.size(); ++r) {
      const auto& sample = campaign.rtt_ms[v][r][round];
      if (!sample) continue;
      row[r] = *sample;
      if (*sample < best) {
        best = *sample;
        winner = static_cast<int>(r);
      }
    }
    if (winner >= 0 && last_winner >= 0 && winner != last_winner)
      ++series.winner_changes;
    if (winner >= 0) last_winner = winner;
    series.winner.push_back(winner);
    series.rtt_ms.push_back(std::move(row));
  }
  return series;
}

}  // namespace cs::analysis
