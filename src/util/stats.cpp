#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace cs::util {
namespace {

/// Copies the finite values out of `xs`. NaNs violate std::sort's
/// strict-weak-ordering requirement (undefined behaviour) and poison any
/// quantile they touch, so every batch helper filters through this first.
/// Infinities are kept: they order correctly and a diverged sample is
/// still a sample.
std::vector<double> drop_nans(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (const double x : xs)
    if (!std::isnan(x)) out.push_back(x);
  return out;
}

/// Linear-interpolated quantile of an already-sorted, NaN-free sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Short-circuit exact hits and equal endpoints: the interpolation
  // formula would otherwise compute inf - inf = NaN when the sample
  // contains infinities (an endpoint quantile of {.., inf} must be inf).
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

double mean(std::span<const double> xs) noexcept {
  double total = 0.0;
  std::size_t n = 0;
  for (const double x : xs) {
    if (std::isnan(x)) continue;
    total += x;
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> copy = drop_nans(xs);
  if (copy.empty()) return 0.0;
  std::sort(copy.begin(), copy.end());
  return sorted_quantile(copy, q);
}

}  // namespace cs::util
