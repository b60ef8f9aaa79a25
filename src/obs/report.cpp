#include "obs/report.h"

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string_view>

#include "obs/log.h"
#include "util/format.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define HAVE_GETRUSAGE 1
#endif

namespace cs::obs {
namespace {

/// Read during static initialisation, i.e. before main(): wall_ms counts
/// from process start, not from whichever call first touched the Tracer.
const std::uint64_t kProcessStartUs = steady_now_us();

void json_escape_into(std::string& out, std::string_view text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
}

#ifdef HAVE_GETRUSAGE
std::uint64_t timeval_us(const timeval& tv) noexcept {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000u +
         static_cast<std::uint64_t>(tv.tv_usec);
}
#endif

/// "VmHWM:    12345 kB" -> 12345. Returns 0 when the label is absent.
std::int64_t proc_status_kb(std::string_view status, std::string_view label) {
  const auto pos = status.find(label);
  if (pos == std::string_view::npos) return 0;
  const char* p = status.data() + pos + label.size();
  return static_cast<std::int64_t>(std::strtoll(p, nullptr, 10));
}

}  // namespace

ResourceUsage resource_usage() noexcept {
  ResourceUsage usage;
#ifdef HAVE_GETRUSAGE
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.user_cpu_us = timeval_us(ru.ru_utime);
    usage.system_cpu_us = timeval_us(ru.ru_stime);
    usage.peak_rss_kb = ru.ru_maxrss;  // kilobytes on Linux
  }
#endif
  // /proc refines the picture where it exists: VmHWM matches ru_maxrss,
  // VmRSS adds the *current* resident size (which rusage cannot report).
  std::ifstream proc{"/proc/self/status", std::ios::binary};
  if (proc) {
    std::string status{std::istreambuf_iterator<char>{proc},
                       std::istreambuf_iterator<char>{}};
    if (const auto hwm = proc_status_kb(status, "VmHWM:"); hwm > 0)
      usage.peak_rss_kb = hwm;
    usage.current_rss_kb = proc_status_kb(status, "VmRSS:");
  }
  return usage;
}

RunReport RunReport::capture(std::string name) {
  RunReport report;
  report.name = std::move(name);
  report.wall_ms = static_cast<double>(steady_now_us() - kProcessStartUs) /
                   1000.0;
  report.resources = resource_usage();
  report.stages = Tracer::instance().stats();
  report.metrics = MetricsRegistry::instance().snapshot();
  return report;
}

void RunReport::sample_counter_lane() {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  const ResourceUsage usage = resource_usage();
  tracer.record_counter("proc.rss_kb",
                        static_cast<double>(usage.current_rss_kb != 0
                                                ? usage.current_rss_kb
                                                : usage.peak_rss_kb));
}

std::string RunReport::to_json() const {
  std::string out;
  out += "{\n  \"bench\": \"";
  json_escape_into(out, name);
  out += "\",\n  \"wall_ms\": ";
  out += util::fmt("{:.3f}", wall_ms);
  out += util::fmt(",\n  \"threads\": {}", threads);
  out += util::fmt(
      ",\n  \"resources\": {{\"user_cpu_ms\": {:.3f}, "
      "\"system_cpu_ms\": {:.3f}, \"peak_rss_kb\": {}, "
      "\"current_rss_kb\": {}}}",
      resources.user_cpu_us / 1000.0, resources.system_cpu_us / 1000.0,
      static_cast<std::uint64_t>(resources.peak_rss_kb < 0
                                     ? 0
                                     : resources.peak_rss_kb),
      static_cast<std::uint64_t>(resources.current_rss_kb < 0
                                     ? 0
                                     : resources.current_rss_kb));
  out += util::fmt(",\n  \"pool\": {{\"tasks\": {}}}",
                   metrics.counter("exec.pool.tasks"));
  // What ran, not just how fast: checkpoint traffic and injected faults.
  out += util::fmt(
      ",\n  \"snap\": {{\"stages_built\": {}, \"stages_resumed\": {}}}",
      metrics.counter("study.stages_built"),
      metrics.counter("study.stages_resumed"));
  {
    std::uint64_t total = 0;
    std::string events;
    for (const auto& c : metrics.counters) {
      constexpr std::string_view prefix = "fault.";
      if (c.name.size() <= prefix.size() ||
          std::string_view{c.name}.substr(0, prefix.size()) != prefix)
        continue;
      total += c.value;
      events += ", \"";
      json_escape_into(events, c.name.substr(prefix.size()));
      events += util::fmt("\": {}", c.value);
    }
    out += util::fmt(",\n  \"fault\": {{\"total\": {}{}}}", total, events);
  }
  // The socket client's loss recovery rides the perf manifests so a
  // trajectory regression can be told apart from a wire that got sick;
  // the wire's impairments ride "fault".
  out += util::fmt(
      ",\n  \"resilience\": {{\"retransmits\": {}, \"expirations\": {}}}",
      metrics.counter("netio.client.retransmits"),
      metrics.counter("netio.client.expirations"));
  out += ",\n  \"stages\": [";
  bool first = true;
  for (const auto& stage : stages) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"name\": \"";
    json_escape_into(out, stage.name);
    out += util::fmt(
        "\", \"count\": {}, \"total_ms\": {:.3f}, \"self_ms\": {:.3f}}}",
        stage.count, stage.total_us / 1000.0, stage.self_us / 1000.0);
  }
  out += "\n  ],\n  \"percentiles\": {";
  first = true;
  for (const auto& h : metrics.histograms) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    json_escape_into(out, h.name);
    out += util::fmt(
        "\": {{\"count\": {}, \"p50\": {:.3f}, \"p90\": {:.3f}, "
        "\"p99\": {:.3f}}}",
        h.count, h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
  }
  out += "\n  },\n  \"counters\": {";
  first = true;
  for (const auto& c : metrics.counters) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    json_escape_into(out, c.name);
    out += util::fmt("\": {}", c.value);
  }
  out += "\n  }\n}\n";
  return out;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream file{path, std::ios::binary | std::ios::trunc};
  if (!file) {
    log_error("obs.report", "cannot open run-report path '{}'", path);
    return false;
  }
  file << to_json();
  if (!file.good()) {
    log_error("obs.report", "short write to run-report path '{}'", path);
    return false;
  }
  return true;
}

}  // namespace cs::obs
