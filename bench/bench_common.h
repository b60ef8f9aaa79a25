#pragma once

#include <iostream>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "exec/config.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/format.h"

/// Shared scaffolding for the table/figure benches.
///
/// Every bench reproduces one table or figure of the paper on the default
/// synthetic universe. Scale knobs:
///   CS_DOMAINS  - size of the ranked domain universe (default 1500)
///   CS_SEED     - world seed (default 2013)
/// Observability knobs (see DESIGN.md "Observability"):
///   CS_TRACE      - write a Chrome trace-event JSON of pipeline spans here
///   CS_LOG_LEVEL  - trace|debug|info|warn|error|off (default warn)
///   CS_BENCH_JSON - write a machine-readable sidecar here at exit: wall
///                   time per pipeline stage plus every metrics counter,
///                   the input to the BENCH_* perf trajectory.
/// Parallelism knobs (see DESIGN.md "Execution model"):
///   CS_THREADS        - exec pool workers (default: hardware
///                       concurrency); the sidecar records it plus the
///                       pool's task count.
/// The output is the reproduced table plus, where stated, an ablation.
namespace cs::bench {

/// Parses a positive integer environment override through util::env's
/// strict rules. Values with trailing garbage ("15x"), signs, or zero are
/// rejected with the uniform malformed-knob warning — a silent misparse
/// would quietly bench the wrong universe.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const auto value = util::env_text(name);
  if (!value) return fallback;
  const auto parsed = util::parse_env_unsigned(*value);
  if (!parsed || *parsed == 0) {
    obs::log_warn("bench", "{}",
                  util::env_malformed(name, *value, "a positive integer"));
    return fallback;
  }
  return *parsed;
}

inline core::StudyConfig default_config(std::size_t default_domains = 1500) {
  core::StudyConfig config;
  config.world.domain_count = env_size("CS_DOMAINS", default_domains);
  config.world.seed = env_size("CS_SEED", 2013);
  config.dataset.lookup_vantages = 4;
  return config;
}

namespace detail {

inline std::string& sidecar_bench_name() {
  static std::string name;
  return name;
}

/// Writes the CS_BENCH_JSON sidecar via obs::RunReport — one consistent
/// metrics snapshot covering wall time, per-stage spans, resource usage,
/// pool task count, snap/fault activity, histogram percentiles, and every
/// counter. Registered via atexit from print_header so each bench main
/// stays a straight-line reproduction.
inline void write_bench_sidecar() {
  const auto path = util::env_text("CS_BENCH_JSON");
  if (!path) return;
  auto report = obs::RunReport::capture(sidecar_bench_name());
  report.threads = exec::thread_count();
  report.write(*path);
}

}  // namespace detail

inline void print_header(const std::string& name) {
  if (const auto sidecar = util::env_text("CS_BENCH_JSON");
      sidecar && detail::sidecar_bench_name().empty()) {
    detail::sidecar_bench_name() = name;
    // Stage wall times come from the span collector even without CS_TRACE.
    obs::Tracer::instance().enable_collection();
    std::atexit(&detail::write_bench_sidecar);
  }
  std::cout << "==== " << name << " ====\n";
}

}  // namespace cs::bench
