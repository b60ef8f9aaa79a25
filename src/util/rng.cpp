#include "util/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string_view>

namespace cs::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument{"Rng::next_below: bound == 0"};
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % bound;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform_int: lo > hi"};
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform01();
  } while (u1 <= 0.0);
  u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double z0 = mag * std::cos(2.0 * std::numbers::pi * u2);
  spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  have_spare_normal_ = true;
  return mean + stddev * z0;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument{"Rng::exponential: rate <= 0"};
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::pareto(double xm, double alpha) {
  if (xm <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument{"Rng::pareto: xm and alpha must be > 0"};
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument{"Rng::zipf: n == 0"};
  if (n == 1) return 1;
  // Rejection-inversion sampling (Hormann & Derflinger) specialised for the
  // classic Zipf pmf ~ 1/k^s. Works for s close to or greater than 1.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(nd + 0.5);
  for (;;) {
    const double u = hx0 + uniform01() * (hn - hx0);
    const double x = h_inv(u);
    const double k = std::floor(x + 0.5);
    if (k < 1.0 || k > nd) continue;
    // Acceptance test against the true pmf.
    if (u >= h(k + 0.5) - std::pow(k, -s)) continue;
    return static_cast<std::uint64_t>(k);
  }
}

std::size_t Rng::weighted_pick(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument{"Rng::weighted_pick: negative weight"};
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument{"Rng::weighted_pick: zero total weight"};
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric slack lands on the last bucket
}

Rng Rng::fork() {
  return Rng{(*this)() ^ 0xd1b54a32d192ed03ULL};
}

std::uint64_t stable_hash(std::string_view text) noexcept {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()},
               kFnv1aBasis);
}

}  // namespace cs::util
