#pragma once

#include <span>

/// Small statistics helpers shared by analysis and benchmarking code.
///
/// All batch helpers ignore NaN inputs: lossy measurement paths (timed-out
/// probes, injected faults) can surface NaN samples, and a NaN fed to
/// std::sort breaks strict weak ordering — undefined behaviour that used
/// to return garbage percentiles. Results are therefore computed over the
/// non-NaN subset and are themselves never NaN (empty subset = 0, like
/// empty input). Infinities are kept; they order fine.
namespace cs::util {

/// Arithmetic mean of non-NaN values; 0 when none.
double mean(std::span<const double> xs) noexcept;

/// Exact median of non-NaN values (copies and sorts). 0 when none.
double median(std::span<const double> xs);

/// Linear-interpolated quantile over non-NaN values, q clamped to [0,1].
/// Returns 0 when no non-NaN value exists.
double quantile(std::span<const double> xs, double q);

}  // namespace cs::util
