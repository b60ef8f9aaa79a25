#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/snapshot.h"
#include "core/study.h"
#include "spans.h"

/// The benchmark's workloads. Each is a batch job driven through
/// CloudScope's public API on a fresh core::Study per pass:
///
///   probe         Study::dataset() over the in-process network
///   capture       Study::capture() over a capture large enough to last
///   study_resume  every stage cold into a checkpoint directory, then
///                 fresh Studies that resume every stage from it
///
/// One more shape, socket_probe (Study::dataset() over the localhost UDP
/// transport), is not a workload: its wall time follows the host's thread
/// wake-up latency too closely to bound. The probe traced run makes one
/// small socket_probe pass for the netio per-layer metrics.
/// A pass returns its timings, the work it did, and a digest per stage
/// artifact; correctness checks are tallied into a Checks ledger. A traced
/// pass also records spans and fills the per-layer metrics.
namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order; setting a name again overwrites it.
class Metrics {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  /// The value, or 0 when the metric was never set.
  double get(std::string_view name) const;
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness ledger: every check is one attempted operation.
class Checks {
 public:
  /// Counts one check; a failed one is reported on stderr.
  void expect(bool ok, std::string_view what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The shape of one workload at one seed.
struct Params {
  std::string workload;
  std::uint64_t world_seed = 0;
  std::uint64_t traffic_seed = 0;
  std::size_t domains = 0;
  /// CS_THREADS for the measured passes; never above 4, the core count the
  /// shapes were tuned on (socket_probe also leaves room for its reactor
  /// threads).
  unsigned threads = 1;
  unsigned server_threads = 1;      ///< socket_probe reactor workers
  std::uint64_t web_bytes = 0;      ///< capture: TrafficConfig bytes
  unsigned resumes = 0;             ///< study_resume: resumes per pass
  std::string scratch_dir;          ///< checkpoints; must exist
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The pinned shape of `workload` (or of socket_probe), with world and
/// traffic seeds derived from `seed`. Throws std::invalid_argument for an
/// unknown name.
Params default_params(std::string_view workload, std::uint64_t seed);

/// The Study configuration a pass builds. Every knob Study would otherwise
/// read from the environment is set explicitly.
cs::core::StudyConfig study_config(const Params& params);

/// What one pass measured.
struct Pass {
  double setup_s = 0.0;  ///< start (given by the caller) to Study built
  double run_s = 0.0;    ///< wall time of the timed phase
  double cpu_s = 0.0;    ///< user + system CPU during the timed phase
  double work = 0.0;     ///< probes, packets, or stage resumes
  double work_s = 0.0;   ///< seconds that work took
  double rss_peak_mb = 0.0;  ///< VmHWM over the pass (MB = 2^20 bytes)
  double subdomain_recall = 0.0;
  double resume_s = 0.0;       ///< study_resume: mean per full resume
  double checkpoint_mb = 0.0;  ///< study_resume: snapshot bytes on disk
  /// Stage name -> FNV-1a over its encode_artifact bytes.
  std::map<std::string, std::uint64_t> digests;
};

/// Spans plus per-layer metrics of a traced pass.
struct Trace {
  SpanLog spans;
  Metrics layers;
};

/// Runs one pass at `params.threads` (a traced pass should be given
/// threads = 1 so self times subtract cleanly). `setup_from` anchors
/// setup_s: process start for a run's first pass, the pass start after.
Pass run_pass(const Params& params, Clock::time_point setup_from,
              Checks& checks, Trace* trace = nullptr);

/// FNV-1a over an artifact's snapshot encoding.
template <typename T>
std::uint64_t artifact_digest(const T& artifact) {
  cs::snap::Writer writer;
  encode_artifact(writer, artifact);
  return cs::snap::fnv1a(writer.bytes());
}

/// Catalogue of every per-layer metric a traced run reports, in order,
/// with its unit; workloads that do no work in a layer report 0 there.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// The end-to-end metrics an untraced run reports, with their units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();

}  // namespace perfbench
