#include "obs/trace.h"

#include <chrono>
#include <fstream>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/sync.h"
#include "util/table.h"

namespace cs::obs {
namespace {

/// Index into Tracer::events_ of the innermost open span on this thread.
/// Per-thread span cursors: never shared across threads, so the C1
/// shared-state hazard does not apply.
thread_local std::int32_t tls_current_span = -1;  // cslint:allow(C1): per-thread span cursor, see above
thread_local std::int32_t tls_depth = 0;          // cslint:allow(C1): per-thread nesting depth, see above

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void json_escape(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::uint64_t steady_now_us() noexcept {
  return static_cast<std::uint64_t>(steady_now_ns() / 1000);
}

Tracer::Tracer() : epoch_ns_(steady_now_ns()) {
  // The thread constructing the tracer is, in practice, the program's main
  // thread; give its lane a readable name up front.
  thread_names_[thread_ordinal()] = "main";
  if (const auto path = util::env_text(util::Knob::kTrace))
    enable_export(*path);
}

Tracer& Tracer::instance() {
  // Intentionally leaked so atexit exporters can run after every other
  // static destructor (see MetricsRegistry::instance for the rationale).
  static Tracer* tracer = new Tracer;
  return *tracer;
}

void Tracer::enable_collection() {
  enabled_.store(true, std::memory_order_relaxed);
  // A trace without its work counters is half a picture; collecting spans
  // implies collecting the per-packet metrics too.
  set_detailed_metrics(true);
}

void Tracer::enable_export(std::string path) {
  {
    util::LockGuard lock{mutex_};
    const bool first_export = export_path_.empty();
    export_path_ = std::move(path);
    if (first_export)
      std::atexit(+[] {
        Tracer& tracer = Tracer::instance();
        std::string path;
        {
          util::LockGuard exit_lock{tracer.mutex_};
          path = tracer.export_path_;
        }
        if (!path.empty()) tracer.write_chrome_json(path);
      });
  }
  enable_collection();
}

void Tracer::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
}

void Tracer::clear() {
  util::LockGuard lock{mutex_};
  events_.clear();
  counter_events_.clear();
}

void Tracer::record_counter(std::string_view name, double value) {
  if (!enabled()) return;
  const std::uint64_t ts = epoch_now_us();
  util::LockGuard lock{mutex_};
  CounterEvent event;
  event.name.assign(name);
  event.ts_us = ts;
  event.value = value;
  counter_events_.push_back(std::move(event));
}

std::vector<CounterEvent> Tracer::counter_events() const {
  util::LockGuard lock{mutex_};
  return counter_events_;
}

std::uint64_t Tracer::epoch_now_us() const noexcept {
  return static_cast<std::uint64_t>((steady_now_ns() - epoch_ns_) / 1000);
}

std::uint32_t Tracer::thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

void Tracer::set_thread_name(std::string name) {
  util::LockGuard lock{mutex_};
  thread_names_[thread_ordinal()] = std::move(name);
}

std::vector<std::pair<std::uint32_t, std::string>> Tracer::thread_names()
    const {
  util::LockGuard lock{mutex_};
  return {thread_names_.begin(), thread_names_.end()};
}

std::int32_t Tracer::record(std::string_view name, std::uint64_t start_us,
                            std::uint64_t dur_us, std::int32_t parent,
                            std::int32_t depth, std::uint32_t tid) {
  util::LockGuard lock{mutex_};
  SpanEvent event;
  event.name.assign(name);
  event.start_us = start_us;
  event.dur_us = dur_us;
  event.tid = tid;
  event.parent = parent;
  event.depth = depth;
  events_.push_back(std::move(event));
  return static_cast<std::int32_t>(events_.size() - 1);
}

void Tracer::patch_duration(std::int32_t index, std::uint64_t dur_us) {
  util::LockGuard lock{mutex_};
  if (index < 0 || static_cast<std::size_t>(index) >= events_.size()) return;
  events_[static_cast<std::size_t>(index)].dur_us = dur_us;
}

std::vector<SpanEvent> Tracer::events() const {
  util::LockGuard lock{mutex_};
  return events_;
}

std::vector<SpanStats> Tracer::stats() const {
  const auto evs = events();
  std::vector<SpanStats> out;
  // Direct-child time per event, for self-time.
  std::vector<std::uint64_t> child_us(evs.size(), 0);
  for (const auto& e : evs)
    if (e.parent >= 0 && static_cast<std::size_t>(e.parent) < evs.size())
      child_us[static_cast<std::size_t>(e.parent)] += e.dur_us;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    SpanStats* stats = nullptr;
    for (auto& s : out)
      if (s.name == e.name) {
        stats = &s;
        break;
      }
    if (!stats) {
      out.push_back(SpanStats{.name = e.name});
      stats = &out.back();
    }
    ++stats->count;
    stats->total_us += e.dur_us;
    const std::uint64_t self =
        e.dur_us > child_us[i] ? e.dur_us - child_us[i] : 0;
    stats->self_us += self;
    stats->max_us = std::max(stats->max_us, e.dur_us);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  const auto evs = events();
  std::string out;
  out.reserve(128 + evs.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Lane-name metadata first, so viewers label pool workers before any
  // span event references their tid.
  for (const auto& [tid, name] : thread_names()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    json_escape(out, name);
    out += "\"}}";
  }
  for (const auto& e : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape(out, e.name);
    out += "\",\"cat\":\"cs\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    out += std::to_string(e.start_us);
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(e.depth);
    out += "}}";
  }
  // Counter lanes last: "C" events render as per-name area tracks in
  // Perfetto (RSS, ...) under the same pid as the span lanes.
  for (const auto& c : counter_events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape(out, c.name);
    out += "\",\"cat\":\"cs\",\"ph\":\"C\",\"pid\":1,\"ts\":";
    out += std::to_string(c.ts_us);
    char value[64];
    std::snprintf(value, sizeof(value), "%.3f", c.value);
    out += ",\"args\":{\"value\":";
    out += value;
    out += "}}";
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream file{path, std::ios::binary | std::ios::trunc};
  if (!file) {
    log_error("obs.trace", "cannot open trace output '{}'", path);
    return false;
  }
  file << chrome_json();
  if (!file.good()) {
    log_error("obs.trace", "short write to trace output '{}'", path);
    return false;
  }
  log_info("obs.trace", "wrote chrome trace to {}", path);
  return true;
}

std::string Tracer::render_summary() const {
  util::Table table{{"span", "count", "total ms", "self ms", "max ms"}};
  table.caption("Pipeline span summary");
  for (const auto& s : stats())
    table.add(s.name, s.count, s.total_us / 1000.0, s.self_us / 1000.0,
              s.max_us / 1000.0);
  return table.render();
}

Span::Span(std::string_view name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  name_ = name;
  start_us_ = tracer.epoch_now_us();
  parent_ = tls_current_span;
  depth_ = tls_depth;
  // Reserve the event now so children (which close first) can point at it.
  tls_current_span = tracer.record(name_, start_us_, 0, parent_, depth_,
                                   Tracer::thread_ordinal());
  ++tls_depth;
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  tracer.patch_duration(tls_current_span, tracer.epoch_now_us() - start_us_);
  tls_current_span = parent_;
  --tls_depth;
}

}  // namespace cs::obs
