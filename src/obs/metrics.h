#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

/// Process-wide metrics: named counters and fixed-bucket histograms
/// describing how much work the pipeline did (DNS queries served, packets
/// decoded, bytes generated, ...).
///
/// Design rules:
///  - Hot paths touch only relaxed atomics. Registration (the name lookup)
///    takes a mutex, so callers cache the returned reference once:
///
///      static auto& queries = obs::counter("dns.server.queries");
///      queries.inc();
///
///  - A Counter is striped: kCounterStripes cache-line-sized cells, and
///    each thread adds to the one it was handed at its first increment.
///    Threads that bump the same counter on every exchange (the DNS
///    server's queries and nxdomain) then keep to their own lines instead
///    of bouncing one between cores. value() and snapshot() sum the
///    cells; reset() zeroes them all.
///  - Instrument handles are owned by the registry and never move, so a
///    cached reference stays valid for the life of the process.
///  - Reads are snapshot-on-read: `snapshot()` copies every value under
///    the registration mutex; later increments don't mutate the copy.
namespace cs::obs {

/// Cells a Counter's count is spread over (see the design rules above).
inline constexpr std::size_t kCounterStripes = 8;

namespace detail {
/// The cell this thread adds to: stripes are handed out round-robin, one
/// per thread, at its first increment.
inline std::size_t counter_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return stripe;
}
}  // namespace detail

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    cells_[detail::counter_stripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// The sum of every cell. Exact once the adds it should count have
  /// happened-before the read, as for a single atomic.
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cell : cells_)
      sum += cell.value.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  /// One cache line each, so threads on different stripes never share one.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kCounterStripes> cells_{};
};

/// Histogram over fixed, registration-time bucket upper bounds. A sample
/// lands in the first bucket whose bound is >= the sample; samples above
/// the last bound land in the implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double sample) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size is bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;  // sorted ascending, immutable
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate interpolated linearly inside the bucket holding
  /// rank q*count: bucket i spans (bounds[i-1], bounds[i]], the first
  /// bucket starts at 0 (histograms here hold non-negative samples), and
  /// the open-ended overflow bucket reports bounds.back() since it has no
  /// upper edge to interpolate toward. q is clamped to [0,1]; an empty
  /// histogram reports 0. Feeds the p50/p90/p99 summaries in RunReport
  /// sidecars.
  double quantile(double q) const noexcept;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a named counter, or 0 when absent.
  std::uint64_t counter(std::string_view name) const noexcept;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumentation site uses.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. The reference is stable.
  Counter& counter(std::string_view name);
  /// `bounds` is used only on first registration and must be non-empty;
  /// later calls with the same name return the existing histogram.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Consistent copy of every registered instrument, sorted by name.
  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument (registrations — and cached references —
  /// survive). Benches call this between warmup and the measured run.
  void reset_values();

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CS_GUARDED_BY(mutex_);
};

namespace detail {
/// -1 = not yet initialized from the CS_METRICS environment variable.
inline std::atomic<int> g_detailed_metrics{-1};
/// Reads CS_METRICS (1/true/on enables) and caches the result.
int init_detailed_metrics_from_env() noexcept;
}  // namespace detail

/// Whether per-packet counters are collected. Stage- and query-level
/// counters are always on (they are amortized over expensive work), but
/// packet-rate paths check this flag first: one relaxed load + branch,
/// cheap enough for a ~6 ns decode loop where even an uncontended atomic
/// increment would triple the cost. Enabled by CS_METRICS=1 or whenever
/// span collection turns on (CS_TRACE, CS_BENCH_JSON, profilers).
inline bool detailed_metrics() noexcept {
  const int v = detail::g_detailed_metrics.load(std::memory_order_relaxed);
  if (v >= 0) [[likely]] return v != 0;
  return detail::init_detailed_metrics_from_env() != 0;
}

inline void set_detailed_metrics(bool on) noexcept {
  detail::g_detailed_metrics.store(on ? 1 : 0, std::memory_order_relaxed);
}

/// Shorthands against the process-wide registry.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(bounds));
}

}  // namespace cs::obs
