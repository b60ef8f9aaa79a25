#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

/// RunReport: the one description of what a run did and what it cost.
///
/// Before it existed every consumer re-derived its own view — the bench
/// sidecar writer took two separate metrics snapshots (so pool and counter
/// values could disagree), pipeline_profile hand-walked the registry, and
/// nothing recorded CPU time or memory at all. RunReport::capture() takes
/// exactly one `MetricsRegistry::snapshot()`, one `Tracer::stats()`, and
/// one `resource_usage()` read, and `to_json()` renders the sidecar shape
/// every `BENCH_*` trajectory entry (and `tools/csbench`) consumes:
///
///   {"bench", "wall_ms", "threads", "resources", "pool", "snap",
///    "fault", "stages", "percentiles", "counters"}
///
/// `pool` holds one key, `tasks` (the exec pool's task count). The
/// `snap`/`fault` blocks record *what* ran — checkpoint hits vs
/// rebuilds, every injected fault — so a trajectory
/// entry is comparable, not just timed. See DESIGN.md §11.
namespace cs::obs {

/// Process resource accounting, read from getrusage(2) plus
/// /proc/self/status. Lives in obs/ beside steady_now_us(): the one place
/// cslint's D1/E1 checks tolerate the process asking the OS about itself.
struct ResourceUsage {
  std::uint64_t user_cpu_us = 0;    ///< ru_utime
  std::uint64_t system_cpu_us = 0;  ///< ru_stime
  std::int64_t peak_rss_kb = 0;     ///< VmHWM, falling back to ru_maxrss
  std::int64_t current_rss_kb = 0;  ///< VmRSS; 0 when /proc is unavailable
};

/// Reads the calling process's usage now. Fields that cannot be read stay
/// zero; never fails.
ResourceUsage resource_usage() noexcept;

struct RunReport {
  std::string name;          ///< bench / program identity
  double wall_ms = 0.0;      ///< process wall time (process start to now)
  unsigned threads = 0;      ///< exec pool width; callers set it (obs
                             ///< cannot depend on exec), 0 = unrecorded
  ResourceUsage resources;
  std::vector<SpanStats> stages;  ///< Tracer::stats() at capture time
  MetricsSnapshot metrics;        ///< the single consistent snapshot

  /// Captures everything at once: wall clock, resource usage, span stats,
  /// and one metrics snapshot that every derived block shares.
  static RunReport capture(std::string name);

  /// Records the current RSS as a Chrome-trace counter event, so repeated
  /// calls (one per pipeline stage) render as a memory lane in Perfetto.
  /// No-op while collection is off.
  static void sample_counter_lane();

  /// The sidecar JSON (shape above). Deterministic field order.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false (and logs) on failure.
  bool write(const std::string& path) const;
};

}  // namespace cs::obs
