// Pipeline profiler: runs every stage of the study pipeline on the
// default universe and prints where the time and the work went — the
// span tree, the per-stage summary table, the process resource bill
// (CPU, peak RSS), and the DNS/pcap work counters.
//
//   ./examples/pipeline_profile [domain_count]
//
// Set CS_TRACE=out.json to additionally write the Chrome trace-event file
// (open it in chrome://tracing or https://ui.perfetto.dev — the RSS
// counter lane sampled at stage boundaries renders there too), and
// CS_BENCH_JSON=out.json to write the full obs::RunReport sidecar, the
// same shape the bench binaries feed into csbench.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/study.h"
#include "exec/config.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/format.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cs;

  // Collect spans even when CS_TRACE is unset — the report below needs them.
  obs::Tracer::instance().enable_collection();

  core::StudyConfig config;
  config.world.domain_count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1500;

  std::cout << util::fmt("Profiling the full pipeline over {} domains...\n\n",
                         config.world.domain_count);

  core::Study study{config};
  // Touch every stage in pipeline order; Study caches each result.
  study.ranges();
  study.rank_map();
  study.dataset();
  study.cloud_usage();
  study.patterns();
  study.regions();
  study.capture_logs();
  study.capture();
  study.zone_study();
  study.campaign();
  study.isp_study();

  // ---- span tree (events are recorded in open order = pre-order).
  // Every same-name sibling under one parent folds into one line with its
  // count, total and max (one dns.enumerate per domain), and so do their
  // children: a line stands for one path of span names from the root.
  struct Folded {
    std::string name;
    std::size_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
    std::vector<std::size_t> children{};
  };
  const auto events = obs::Tracer::instance().events();
  std::vector<Folded> folded;
  std::vector<std::size_t> roots;
  std::vector<std::size_t> folded_of(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    auto& siblings = event.parent < 0
                         ? roots
                         : folded[folded_of[event.parent]].children;
    const auto it = std::find_if(
        siblings.begin(), siblings.end(),
        [&](std::size_t f) { return folded[f].name == event.name; });
    std::size_t f = folded.size();
    if (it != siblings.end()) {
      f = *it;
    } else {
      siblings.push_back(f);  // before push_back below may move `siblings`
      folded.push_back(Folded{.name = event.name});
    }
    folded_of[i] = f;
    auto& line = folded[f];
    ++line.count;
    line.total_us += event.dur_us;
    line.max_us = std::max(line.max_us, event.dur_us);
  }
  std::cout << "Span tree:\n";
  const auto print = [&](const auto& self, std::size_t f,
                         std::size_t depth) -> void {
    const auto& line = folded[f];
    std::cout << util::fmt(
        "{}{}{}  {:.1f} ms{}\n", std::string(2 * depth, ' '), line.name,
        line.count > 1 ? util::fmt(" x{}", line.count) : "",
        line.total_us / 1000.0,
        line.count > 1 ? util::fmt(" (max {:.1f})", line.max_us / 1000.0)
                       : "");
    for (const auto child : line.children) self(self, child, depth + 1);
  };
  for (const auto root : roots) print(print, root, 0);

  std::cout << "\n" << obs::Tracer::instance().render_summary() << "\n";

  // ---- the unified run report -------------------------------------------
  // One capture covers everything below: resource bill, percentiles, and
  // the counter table all read the same consistent snapshot.
  auto report = obs::RunReport::capture("pipeline_profile");
  report.threads = exec::thread_count();

  const auto& usage = report.resources;
  std::cout << util::fmt(
      "Resources: {:.0f} ms user + {:.0f} ms system CPU, peak RSS {:.1f} "
      "MiB ({} threads)\n",
      usage.user_cpu_us / 1000.0, usage.system_cpu_us / 1000.0,
      usage.peak_rss_kb / 1024.0, report.threads);
  for (const auto& h : report.metrics.histograms)
    if (h.count > 0)
      std::cout << util::fmt("{}: p50 {:.1f} / p90 {:.1f} / p99 {:.1f} "
                             "({} samples)\n",
                             h.name, h.quantile(0.50), h.quantile(0.90),
                             h.quantile(0.99), h.count);
  std::cout << "\n";

  if (const auto sidecar = util::env_text("CS_BENCH_JSON"))
    if (report.write(*sidecar))
      std::cout << util::fmt("Wrote run report to {}\n\n", *sidecar);

  // ---- work counters ----------------------------------------------------
  const auto& snapshot = report.metrics;
  util::Table counters{{"counter", "value"}};
  counters.caption("Pipeline work counters");
  for (const auto& c : snapshot.counters) counters.add(c.name, c.value);
  std::cout << counters.render() << "\n";

  const auto queries = snapshot.counter("dns.server.queries");
  const auto nxdomain = snapshot.counter("dns.server.nxdomain");
  if (queries > 0)
    std::cout << util::fmt(
        "DNS: {} authoritative queries served, {:.1f}% NXDOMAIN, "
        "{} AXFR granted / {} refused.\n",
        queries, 100.0 * nxdomain / queries,
        snapshot.counter("dns.server.axfr_granted"),
        snapshot.counter("dns.server.axfr_refused"));
  const auto lookups = snapshot.counter("analysis.dataset.vantage_lookups");
  if (lookups > 0) {
    const auto exchanges =
        snapshot.counter("analysis.dataset.vantage_exchanges");
    std::cout << util::fmt(
        "Vantage lookups: {} lookups, {} exchanges ({:.2f} per lookup).\n",
        lookups, exchanges, static_cast<double>(exchanges) / lookups);
  }
  std::cout << util::fmt(
      "pcap: {} packets decoded ({} bytes), {} truncated, {} flows "
      "assembled.\n",
      snapshot.counter("pcap.decode.packets"),
      snapshot.counter("pcap.decode.bytes"),
      snapshot.counter("pcap.decode.truncated"),
      snapshot.counter("pcap.flow.flows"));
  return 0;
}
