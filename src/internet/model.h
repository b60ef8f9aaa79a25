#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "internet/vantage.h"
#include "util/rng.h"

/// Wide-area and intra-cloud network model.
///
/// Produces the measurements the paper gathered with hping3/HTTP GETs:
///  - client-to-region RTT: geographic propagation (inflated fibre path)
///    plus last-mile constants, diurnal load, per-path congestion episodes,
///    and per-probe jitter. Episodes are what make "the best region for a
///    client" change over time (Figure 11).
///  - client-to-region TCP throughput: window/RTT-limited with an access
///    cap and loss episodes (Figure 9/12b).
///  - intra-cloud instance-to-instance RTT: ~0.5 ms same-zone, a stable
///    per-zone-pair value in [1.2, 2.2] ms cross-zone (Table 11) and
///    geographic RTT cross-region. This is the signal the latency-based
///    cartography thresholds on.
/// All values are deterministic functions of (seed, path, time).
namespace cs::internet {

class WideAreaModel {
 public:
  struct Config {
    std::uint64_t seed = 1;
  };

  explicit WideAreaModel(Config config);

  /// One TCP-ping RTT sample (ms) from a vantage to a region front end at
  /// absolute time `t_sec`; nullopt models a lost probe.
  std::optional<double> rtt_sample(const VantagePoint& v,
                                   const cloud::Region& region, double t_sec);

  /// The deterministic base RTT (no jitter/episodes) — handy for tests.
  double base_rtt_ms(const VantagePoint& v, const cloud::Region& region) const;

  /// One 2 MB-file HTTP download throughput sample in KB/s (Figure 9's
  /// methodology); nullopt when the (10 s) download deadline is exceeded.
  std::optional<double> throughput_sample(const VantagePoint& v,
                                          const cloud::Region& region,
                                          double t_sec);

  /// Intra-cloud RTT sample between two instances of one provider (ms).
  double instance_rtt_sample(const cloud::Provider& provider,
                             const cloud::Instance& a,
                             const cloud::Instance& b, double t_sec);

  /// Whether a single probe to an instance goes unanswered entirely (some
  /// targets never respond — Table 12's "responded" column).
  bool instance_unresponsive(const cloud::Instance& target) const;

  /// Stable per-zone-pair base RTT in a region (ground truth used by
  /// instance_rtt_sample; exposed for tests and Table 11).
  double zone_pair_base_ms(const std::string& region, int zone_a,
                           int zone_b) const;

 private:
  /// Congestion multiplier for a path at a time (1.0 when clear).
  double congestion_factor(std::uint64_t path_key, double t_sec) const;
  double diurnal_factor(const VantagePoint& v, double t_sec) const;

  Config config_;
};

}  // namespace cs::internet
