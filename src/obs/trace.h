#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.h"

/// Pipeline spans: RAII timers that nest, aggregate into a per-stage
/// summary table, and export as Chrome trace-event JSON.
///
///   CS_TRACE=out.json ./bench_table9_regions
///
/// writes `out.json`, loadable in chrome://tracing or https://ui.perfetto.dev.
/// Tracing is off unless CS_TRACE is set (or a program enables collection);
/// a disabled `Span` is two relaxed atomic loads and performs no allocation,
/// so instrumented hot paths cost nothing in ordinary runs.
///
/// Spans nest per thread: a span opened while another is live on the same
/// thread records that span as its parent, which is how the exported trace
/// and the summary's self-time are computed.
namespace cs::obs {

/// Microseconds on the monotonic clock. The sanctioned wall-clock read
/// for library code: cs-lint's D1 check bans direct clock access outside
/// obs/ (and snap/'s backoff), so timing can never silently leak into
/// seeded, reproducible artifacts.
std::uint64_t steady_now_us() noexcept;

struct SpanEvent {
  std::string name;
  std::uint64_t start_us = 0;  ///< relative to tracer epoch
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;       ///< small per-thread ordinal
  std::int32_t parent = -1;    ///< index into the event list, -1 = root
  std::int32_t depth = 0;
};

/// One sample of a numeric lane ("counter" in the trace-event format):
/// resident set size, ... Perfetto renders each distinct
/// name as its own filled-area track alongside the span lanes.
struct CounterEvent {
  std::string name;
  std::uint64_t ts_us = 0;  ///< relative to tracer epoch
  double value = 0.0;
};

struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t self_us = 0;  ///< total minus time in child spans
  std::uint64_t max_us = 0;
};

class Tracer {
 public:
  /// Process-wide tracer. First access reads CS_TRACE: when set and
  /// non-empty, collection starts and the trace is written to that path
  /// at process exit.
  static Tracer& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts collection without scheduling a file export (benches and the
  /// profiler example use this to build summaries in-process).
  void enable_collection();
  /// Starts collection and writes `path` at process exit.
  void enable_export(std::string path);
  void disable() noexcept;

  /// Drops every recorded event (collection state is unchanged).
  void clear();

  std::vector<SpanEvent> events() const;
  /// Aggregates events by span name, ordered by first occurrence.
  std::vector<SpanStats> stats() const;

  /// Appends a counter sample at the current epoch time. A no-op while
  /// collection is disabled, so instrumented code can sample
  /// unconditionally (RunReport::sample_counter_lane is the usual caller).
  void record_counter(std::string_view name, double value);
  std::vector<CounterEvent> counter_events() const;

  /// Chrome trace-event JSON ("traceEvents" array of complete "X" events).
  std::string chrome_json() const;
  /// Writes chrome_json() to a file; returns false (and logs) on failure.
  bool write_chrome_json(const std::string& path) const;

  /// Renders stats() as a fixed-width table via util::Table.
  std::string render_summary() const;

  /// Used by Span: reserves the event slot at span open (children close
  /// before their parent, so the parent index must exist first) and
  /// returns its index. `start_us` is relative to the tracer epoch.
  std::int32_t record(std::string_view name, std::uint64_t start_us,
                      std::uint64_t dur_us, std::int32_t parent,
                      std::int32_t depth, std::uint32_t tid);

  /// Used by Span: fills in the duration of a reserved event. A no-op when
  /// the event list was cleared since the reservation.
  void patch_duration(std::int32_t index, std::uint64_t dur_us);

  /// Microseconds since the tracer epoch (steady clock).
  std::uint64_t epoch_now_us() const noexcept;

  /// Small dense ordinal for the calling thread (stable per thread).
  static std::uint32_t thread_ordinal();

  /// Names the calling thread's lane in exports and summaries (pool
  /// workers register as "exec-worker-0" ... so traces stay readable
  /// instead of showing raw thread ordinals). Safe to call whether or not
  /// collection is enabled; the last name registered for a thread wins.
  void set_thread_name(std::string name);

  /// Registered lane names by thread ordinal (exposed for tests).
  std::vector<std::pair<std::uint32_t, std::string>> thread_names() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable util::Mutex mutex_;
  std::vector<SpanEvent> events_ CS_GUARDED_BY(mutex_);
  std::vector<CounterEvent> counter_events_ CS_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::string> thread_names_ CS_GUARDED_BY(mutex_);
  std::string export_path_ CS_GUARDED_BY(mutex_);
  std::int64_t epoch_ns_ = 0;  ///< immutable after construction
};

/// RAII span. Opens on construction, records on destruction. When the
/// tracer is disabled at open time the span is inert (no clock reads, no
/// allocation) and stays inert even if tracing turns on mid-span.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string_view name_;   // literal at every call site; never outlived
  std::uint64_t start_us_ = 0;
  std::int32_t parent_ = -1;
  std::int32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace cs::obs
