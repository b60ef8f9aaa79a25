#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

/// Deterministic random number generation for all stochastic components.
///
/// Every simulator in cloudscope derives its randomness from an explicit
/// seed so that each experiment is exactly reproducible. The generator is
/// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64,
/// which gives solid statistical quality without pulling in <random>'s
/// implementation-defined distributions (those differ across standard
/// libraries and would break cross-platform reproducibility).
namespace cs::util {

/// Deterministic 64-bit PRNG with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with standard algorithms such as std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Standard normal via Box–Muller (deterministic pairing).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(normal(mu, sigma)). Used for flow-size tails.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tails).
  double pareto(double xm, double alpha);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t weighted_pick(std::span<const double> weights);

  /// Derives an independent child generator; streams do not overlap in
  /// practice because the child is seeded from a splitmix64 step.
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// Zipf-distributed ranks in [1, n] with exponent s, by rejection-inversion
/// sampling (Hormann & Derflinger; suitable for n up to millions). The
/// bounds h(0.5) and h(n + 0.5) are computed once here, so a draw pays
/// only for the inversion and the acceptance test.
class Zipf {
 public:
  /// Throws std::invalid_argument when n == 0.
  Zipf(std::uint64_t n, double s);

  std::uint64_t operator()(Rng& rng) const;

 private:
  double h(double x) const;
  double h_inv(double y) const;

  double s_;
  double n_;    ///< n as a double
  double hx0_;  ///< h(0.5) - 1
  double hn_;   ///< h(n + 0.5)
};

/// The standard 64-bit FNV-1a offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
/// The standard basis's decimal spelling, 14695981039346656037, short of
/// its last digit. Snapshot checksums and fault keys hash from it, so it
/// stays: changing it would move every pinned checksum and fault draw.
inline constexpr std::uint64_t kFnv1aShortBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a over `bytes`, starting from `basis`. Spans chain: a
/// call's result is the basis that continues the hash over more bytes.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                              std::uint64_t basis) noexcept {
  for (const auto byte : bytes) {
    basis ^= byte;
    basis *= 0x100000001b3ULL;
  }
  return basis;
}

/// Stable 64-bit hash of a string (FNV-1a from kFnv1aBasis). Handy for
/// deriving per-entity seeds from names so entity behaviour is
/// order-independent.
std::uint64_t stable_hash(std::string_view text) noexcept;

}  // namespace cs::util
