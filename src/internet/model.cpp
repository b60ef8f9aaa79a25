#include "internet/model.h"

#include <cmath>
#include <numbers>

namespace cs::internet {
namespace {

// Calibration constants: the paper reports their effects, not values.
/// Chance a path is congested in a 2-hour bucket, calibrated so a client's
/// best region changes over three days (Figure 11).
constexpr double kCongestionProbability = 0.15;
/// Chance a single hping3-style ping goes unanswered.
constexpr double kProbeLoss = 0.01;
/// TCP window of Figure 9's 2 MB downloads: throughput = window / RTT.
constexpr double kTcpWindowBytes = 128 * 1024;
/// Last-mile ceiling of a PlanetLab client's download, in KB/s.
constexpr double kAccessCapKbps = 12000.0;

/// Deterministic per-(key, bucket) uniform in [0, 1).
double hashed_uniform(std::uint64_t key, std::uint64_t bucket) {
  util::Rng rng{key ^ (bucket * 0x9e3779b97f4a7c15ULL)};
  return rng.uniform01();
}

std::uint64_t path_key_of(const VantagePoint& v, const cloud::Region& region,
                          std::uint64_t seed) {
  return seed ^ util::stable_hash(v.name) ^
         (util::stable_hash(region.name) * 1315423911ULL);
}

}  // namespace

WideAreaModel::WideAreaModel(Config config) : config_(config) {}

double WideAreaModel::base_rtt_ms(const VantagePoint& v,
                                  const cloud::Region& region) const {
  // Round trip over inflated fibre + last-mile/queueing constant, with a
  // stable per-path offset so equal-distance paths are not identical.
  const double propagation =
      2.0 * util::propagation_delay_ms(v.location.point,
                                       region.location.point);
  const double path_bias =
      6.0 * hashed_uniform(path_key_of(v, region, config_.seed), 0xB1A5);
  return 6.0 + propagation + path_bias;
}

double WideAreaModel::diurnal_factor(const VantagePoint& v,
                                     double t_sec) const {
  // Mild sinusoidal load keyed to the vantage's local time of day.
  const double local_hours =
      std::fmod(t_sec / 3600.0 + v.location.point.lon_deg / 15.0 + 48.0,
                24.0);
  return 1.0 + 0.05 * std::sin(2.0 * std::numbers::pi *
                               (local_hours - 15.0) / 24.0);
}

double WideAreaModel::congestion_factor(std::uint64_t path_key,
                                        double t_sec) const {
  const auto bucket = static_cast<std::uint64_t>(t_sec / 7200.0);
  const double draw = hashed_uniform(path_key, bucket);
  if (draw >= kCongestionProbability) return 1.0;
  // Episode severity is itself stable within the bucket: 1.5x - 3x.
  return 1.5 + 1.5 * hashed_uniform(path_key * 31, bucket);
}

std::optional<double> WideAreaModel::rtt_sample(const VantagePoint& v,
                                                const cloud::Region& region,
                                                double t_sec) {
  const std::uint64_t key = path_key_of(v, region, config_.seed);
  util::Rng probe_rng{key ^ static_cast<std::uint64_t>(t_sec * 1000.0)};
  if (probe_rng.chance(kProbeLoss)) return std::nullopt;
  const double base = base_rtt_ms(v, region) * diurnal_factor(v, t_sec) *
                      congestion_factor(key, t_sec);
  // Per-probe jitter: small lognormal tail, as queues produce.
  const double jitter = probe_rng.lognormal(0.0, 0.4) - 1.0;
  return base + std::max(-0.3 * base, 2.0 * jitter);
}

std::optional<double> WideAreaModel::throughput_sample(
    const VantagePoint& v, const cloud::Region& region, double t_sec) {
  const std::uint64_t key = path_key_of(v, region, config_.seed) * 7;
  util::Rng probe_rng{key ^ static_cast<std::uint64_t>(t_sec * 1000.0)};
  const auto rtt = rtt_sample(v, region, t_sec);
  if (!rtt) return std::nullopt;
  // Window-limited TCP with loss-episode degradation.
  const double rtt_sec = *rtt / 1000.0;
  double kbps = kTcpWindowBytes / rtt_sec / 1024.0;
  kbps = std::min(kbps, kAccessCapKbps);
  const double loss_draw =
      hashed_uniform(key * 13, static_cast<std::uint64_t>(t_sec / 7200.0));
  if (loss_draw < 0.1) kbps *= 0.3 + 0.4 * loss_draw / 0.1;  // lossy episode
  kbps *= 0.9 + 0.2 * probe_rng.uniform01();
  // The paper cancelled downloads over 10 s: 2 MB / 10 s = 204.8 KB/s floor.
  if (kbps < 2048.0 / 10.0) return std::nullopt;
  return kbps;
}

double WideAreaModel::zone_pair_base_ms(const std::string& region, int zone_a,
                                        int zone_b) const {
  if (zone_a == zone_b) {
    // Same zone: ~0.5 ms with a tiny stable per-zone offset.
    return 0.45 +
           0.1 * hashed_uniform(config_.seed ^ util::stable_hash(region),
                                static_cast<std::uint64_t>(zone_a));
  }
  const int lo = std::min(zone_a, zone_b);
  const int hi = std::max(zone_a, zone_b);
  const std::uint64_t pair_key = config_.seed ^
                                 util::stable_hash(region) * 97 ^
                                 (static_cast<std::uint64_t>(lo) << 8 | hi);
  // Some regions have physically close zone pairs whose RTT dips near the
  // same-zone band — the confusion source behind the paper's per-region
  // error-rate differences (eu-west hit 25%).
  const double overlap_prob =
      0.04 + 0.30 * hashed_uniform(config_.seed ^
                                       util::stable_hash(region) * 131,
                                   0x0E0E);
  if (hashed_uniform(pair_key * 7, 0x0F0F) < overlap_prob)
    return 0.92 + 0.25 * hashed_uniform(pair_key, 0x20E5);
  return 1.3 + 0.9 * hashed_uniform(pair_key, 0x20E5);
}

double WideAreaModel::instance_rtt_sample(const cloud::Provider& provider,
                                          const cloud::Instance& a,
                                          const cloud::Instance& b,
                                          double t_sec) {
  double base;
  if (a.region == b.region) {
    base = zone_pair_base_ms(a.region, a.zone, b.zone);
    // Stable path congestion between a probe zone and a target (loaded
    // hosts, hot switches): min-of-N probing cannot filter it, which is
    // what produces the paper's unknowns and mislabels. The prevalence
    // varies by region.
    const std::uint64_t path_key = config_.seed ^ (b.id * 131) ^
                                   (static_cast<std::uint64_t>(a.zone) *
                                    7919) ^
                                   util::stable_hash(a.region);
    const double congested_prob =
        0.04 + 0.24 * hashed_uniform(
                          config_.seed ^ util::stable_hash(a.region) * 53,
                          0xC0DE);
    if (hashed_uniform(path_key, 0x10AD) < congested_prob)
      base += 0.35 + 1.2 * hashed_uniform(path_key, 0xB1A5);
  } else {
    const auto* ra = provider.region(a.region);
    const auto* rb = provider.region(b.region);
    base = 2.0 * util::propagation_delay_ms(ra->location.point,
                                            rb->location.point) +
           2.0;
  }
  // Intra-cloud probes see occasional multi-ms noise spikes (shared
  // hosts/switches); min-of-N probing suppresses them.
  util::Rng probe_rng{config_.seed ^ (a.id * 0x9E37ULL) ^ (b.id * 0x79B9ULL) ^
                      static_cast<std::uint64_t>(t_sec * 1e3)};
  double noise = probe_rng.exponential(20.0);  // mean 0.05 ms
  if (probe_rng.chance(0.08)) noise += probe_rng.uniform(0.5, 4.0);  // spike
  return base + noise;
}

bool WideAreaModel::instance_unresponsive(const cloud::Instance& target)
    const {
  // A stable ~22% of instances never answer probes (firewalled), in line
  // with Table 12's responded/total ratios.
  return hashed_uniform(config_.seed ^ 0xF12EBA11ULL, target.id) < 0.22;
}

}  // namespace cs::internet
