// perfbench: runs one CloudScope benchmark workload and prints its metrics.
//
//   perfbench --workload <probe|capture|study_resume>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--world-seed <n>] [--traffic-seed <n>]
//
// Untraced (--trace 0): repeats fresh passes of the workload's timed phase
// until --seconds have passed (at least three) and reports the end-to-end
// metrics as medians over the passes. Traced (--trace 1): one untraced
// pass at the pinned thread count, one traced pass at CS_THREADS=1, then
// one untraced pass at CS_THREADS=1; reports the per-layer metrics and
// the tracing overhead, and writes the span file into --out-dir. The probe
// traced run adds a small dataset pass over localhost UDP for the netio
// metrics.
//
// Every line before the last is human-readable; the last line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// Process start as the benchmark's own clock sees it: initialised before
/// main runs, so the first pass's setup_s covers the whole process start.
const Clock::time_point kProcessStart = Clock::now();

constexpr unsigned kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
  std::optional<std::uint64_t> world_seed, traffic_seed;
};

std::uint64_t to_u64(std::string_view flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text.front() == '-')
    throw std::invalid_argument{std::string{flag} +
                                " wants a whole number, got '" + text + "'"};
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument{"missing value for " + std::string{flag}};
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = to_u64(flag, value);
    else if (flag == "--seconds")
      a.seconds = static_cast<double>(to_u64(flag, value));
    else if (flag == "--trace")
      a.trace = to_u64(flag, value) != 0;
    else if (flag == "--out-dir")
      a.out_dir = value;
    else if (flag == "--world-seed")
      a.world_seed = to_u64(flag, value);
    else if (flag == "--traffic-seed")
      a.traffic_seed = to_u64(flag, value);
    else
      throw std::invalid_argument{"unknown flag " + std::string{flag}};
  }
  if (a.workload.empty()) throw std::invalid_argument{"--workload is required"};
  return a;
}

/// Clears every CS_* variable so an ambient environment cannot change a
/// workload (CS_TRANSPORT, CS_CHECKPOINT, CS_FAULT, CS_CHAOS, CS_NETIO_*,
/// CS_TRACE, CS_METRICS, CS_THREADS, ...), and pins the process-wide
/// switches those variables would otherwise set on first use.
void clear_cs_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry; ++entry) {
    const std::string_view kv{*entry};
    if (kv.starts_with("CS_")) names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& name : names) unsetenv(name.c_str());
  cs::fault::set_plan(nullptr);
  cs::obs::set_detailed_metrics(false);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename Get>
double median_of(const std::vector<Pass>& passes, Get&& get) {
  std::vector<double> values;
  for (const auto& pass : passes) values.push_back(get(pass));
  return median(std::move(values));
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

void print_metric(const Metric& m) {
  std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit
            << "\n";
}

void print_digests(const Pass& pass) {
  for (const auto& [stage, digest] : pass.digests) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::cout << "digest " << stage << " = " << hex << "\n";
  }
}

void print_result(Checks& checks, const Metrics& metrics) {
  for (const auto& m : metrics.all())
    checks.expect(std::isfinite(m.value), m.name + " is a finite number");
  std::ostringstream out;
  out << "{\"correct\": "
      << (checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics.all()) {
    out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Workload-specific figures, from a pass at the pinned thread count.
void workload_figures(const Params& p, const Pass& pass, Metrics& out) {
  const double rate = pass.work_s > 0 ? pass.work / pass.work_s : 0.0;
  out.set("probes_per_s", p.workload == "probe" ? rate : 0.0, "probes/s");
  out.set("packets_per_s", p.workload == "capture" ? rate : 0.0, "packets/s");
  out.set("resume_s", pass.resume_s, "s");
  out.set("checkpoint_mb", pass.checkpoint_mb, "MB");
  out.set("subdomain_recall", pass.subdomain_recall, "ratio");
}

/// The catalogued end-to-end metric `name`: its median over the passes.
double end_to_end_value(const std::vector<Pass>& passes,
                        const std::string& name) {
  if (name == "setup_s")
    return median_of(passes, [](auto& x) { return x.setup_s; });
  if (name == "run_s")
    return median_of(passes, [](auto& x) { return x.run_s; });
  if (name == "cpu_s")
    return median_of(passes, [](auto& x) { return x.cpu_s; });
  if (name == "rss_peak_mb")
    return median_of(passes, [](auto& x) { return x.rss_peak_mb; });
  if (name == "work_per_s")
    return median_of(passes, [](auto& x) { return x.work / x.work_s; });
  throw std::logic_error{"no measurement for end-to-end metric " + name};
}

int untraced_run(const Args& args, const Params& p) {
  Checks checks;
  std::vector<Pass> passes;
  const auto measuring = Clock::now();
  // Stop once the next pass, predicted from the median so far, would end
  // past --seconds, so a run lasts about --seconds whatever the pass size.
  std::vector<double> pass_walls;
  while (passes.size() < kMinPasses ||
         seconds_since(measuring) + median(pass_walls) < args.seconds) {
    const auto started = Clock::now();
    passes.push_back(
        run_pass(p, passes.empty() ? kProcessStart : started, checks));
    pass_walls.push_back(seconds_since(started));
    const auto& last = passes.back();
    std::cout << "pass " << passes.size() << ": setup_s "
              << number(last.setup_s) << " run_s " << number(last.run_s)
              << " cpu_s " << number(last.cpu_s) << " work "
              << number(last.work) << " in " << number(last.work_s)
              << " s rss_peak_mb " << number(last.rss_peak_mb) << "\n";
    checks.expect(passes.back().digests == passes.front().digests,
                  "a repeated pass at one seed reproduces every artifact");
  }

  Metrics e2e;
  for (const auto& [name, unit] : end_to_end_catalog())
    e2e.set(name, end_to_end_value(passes, name), unit);

  Metrics extra;
  Pass typical = passes.front();
  typical.work = median_of(passes, [](auto& x) { return x.work; });
  typical.work_s = median_of(passes, [](auto& x) { return x.work_s; });
  typical.resume_s = median_of(passes, [](auto& x) { return x.resume_s; });
  workload_figures(p, typical, extra);
  extra.set("ops_failed_ratio",
            static_cast<double>(checks.failed()) / checks.attempted(), "ratio");
  extra.set("passes", static_cast<double>(passes.size()), "count");

  std::cout << "workload " << p.workload << " seed " << args.seed << " ("
            << p.domains << " domains, CS_THREADS=" << p.threads << ")\n";
  for (const auto& m : e2e.all()) print_metric(m);
  for (const auto& m : extra.all()) print_metric(m);
  print_digests(passes.front());
  print_result(checks, e2e);
  return 0;
}

int traced_run(const Args& args, const Params& p) {
  Checks checks;
  const Pass pinned = run_pass(p, Clock::now(), checks);
  Params single = p;
  single.threads = 1;
  // The untraced single-thread pass goes last, so whatever a pass leaves
  // warm favours it and the overhead estimate errs high, not low.
  Trace trace;
  const Pass traced = run_pass(single, Clock::now(), checks, &trace);
  const Pass untraced = run_pass(single, Clock::now(), checks);
  checks.expect(untraced.digests == pinned.digests,
                "artifacts at CS_THREADS=1 equal those at the pinned count");
  checks.expect(traced.digests == pinned.digests,
                "the traced pass reproduces every artifact");

  auto& layers = trace.layers;
  if (p.workload == "probe") {
    // The netio layer: one traced socket_probe pass, whose dataset must
    // equal the same shape's dataset over the in-process network.
    Params socket = default_params("socket_probe", args.seed);
    socket.world_seed = p.world_seed;
    socket.scratch_dir = p.scratch_dir;
    Params sim = socket;
    sim.workload = "probe";
    const Pass reference = run_pass(sim, Clock::now(), checks);
    Trace socket_trace;
    const Pass over_udp = run_pass(socket, Clock::now(), checks, &socket_trace);
    checks.expect(over_udp.digests == reference.digests,
                  "the dataset over localhost UDP equals the in-process one");
    for (const auto& m : socket_trace.layers.all())
      if (m.name.starts_with("netio.")) layers.set(m.name, m.value, m.unit);
  }
  workload_figures(p, pinned, layers);
  layers.set("exec.cpu_util", pinned.cpu_s / (pinned.run_s * p.threads),
             "ratio");
  layers.set("synth.world.build_s", traced.setup_s, "s");
  layers.set("trace.untraced_run_s", untraced.run_s, "s");
  layers.set("trace.traced_run_s", traced.run_s, "s");
  layers.set("trace.overhead_s", traced.run_s - untraced.run_s, "s");
  layers.set("trace.spans", static_cast<double>(trace.spans.spans().size()),
             "count");

  const auto span_file = std::filesystem::path{args.out_dir} /
                         ("spans-" + p.workload + "-seed" +
                          std::to_string(args.seed) + ".json");
  checks.expect(trace.spans.write_chrome_json(span_file.string()),
                "span file written: " + span_file.string());

  Metrics out;
  for (const auto& [name, unit] : per_layer_catalog())
    out.set(name, layers.get(name), unit);

  std::cout << "workload " << p.workload << " seed " << args.seed
            << " traced at CS_THREADS=1; spans in " << span_file.string()
            << "\n";
  for (const auto& m : out.all()) print_metric(m);
  if (layers.get("analysis.dataset.build_s") > 0)
    std::cout << "accounting: analysis.dataset.build_s "
              << number(layers.get("analysis.dataset.build_s"))
              << " s = dns.server.busy_s "
              << number(layers.get("dns.server.busy_s"))
              << " s + dns.client.self_s "
              << number(layers.get("dns.client.self_s"))
              << " s; of the client self time, codec rungs explain "
              << number(layers.get("dns.client.codec_s")) << " s and "
              << number(layers.get("analysis.dataset.unattributed_s"))
              << " s is unattributed\n";
  if (layers.get("netio.busy_s") > 0)
    std::cout << "socket pass: netio.busy_s "
              << number(layers.get("netio.busy_s"))
              << " s of client time blocked in exchanges over localhost UDP\n";
  print_digests(traced);
  print_result(checks, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    clear_cs_environment();
    const Args args = parse_args(argc, argv);
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
      throw std::invalid_argument{"unknown workload '" + args.workload + "'"};
    Params p = default_params(args.workload, args.seed);
    if (args.world_seed) p.world_seed = *args.world_seed;
    if (args.traffic_seed) p.traffic_seed = *args.traffic_seed;

    const auto work = std::filesystem::path{args.out_dir} /
                      ("work-" + std::to_string(::getpid()));
    std::filesystem::create_directories(work);
    p.scratch_dir = work.string();
    const int code = args.trace ? traced_run(args, p) : untraced_run(args, p);
    std::filesystem::remove_all(work);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
