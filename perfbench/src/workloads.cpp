#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "analysis/columns.h"
#include "exec/config.h"
#include "ladder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "pcap/flow.h"
#include "proto/logs.h"
#include "synth/traffic.h"
#include "timing_transport.h"

namespace perfbench {

namespace fs = std::filesystem;
using cs::core::Study;

void Metrics::set(std::string_view name, double value, std::string_view unit) {
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({std::string{name}, value, std::string{unit}});
}

double Metrics::get(std::string_view name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return m.value;
  return 0.0;
}

void Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"probe", "capture",
                                              "study_resume"};
  return names;
}

Params default_params(std::string_view workload, std::uint64_t seed) {
  Params p;
  p.workload = std::string{workload};
  p.world_seed = seed;
  p.traffic_seed = seed + 1'000'003;
  // Every workload builds the ROADMAP's 1500-domain world. The build time
  // of a world of a few hundred domains, which is setup_s, moves by a
  // fifth from one seed to the next.
  p.domains = 1500;
  if (workload == "probe") {
    p.threads = 4;
  } else if (workload == "capture") {
    // total_web_bytes, not the world, sets the packet volume.
    p.threads = 2;
    p.web_bytes = 512ull << 20;
  } else if (workload == "study_resume") {
    p.threads = 4;
    p.resumes = 10;
  } else if (workload == "socket_probe") {
    // Not a benchmark workload: the probe traced run's netio pass. Two
    // resolver threads + one server reactor + the client reactor.
    p.domains = 50;
    p.threads = 2;
    p.server_threads = 1;
  } else {
    throw std::invalid_argument{"unknown workload '" + std::string{workload} +
                                "'"};
  }
  return p;
}

cs::core::StudyConfig study_config(const Params& p) {
  cs::core::StudyConfig config;
  config.world.seed = p.world_seed;
  config.world.domain_count = p.domains;
  config.traffic.seed = p.traffic_seed;
  if (p.web_bytes) config.traffic.total_web_bytes = p.web_bytes;
  // The benches' dataset shape (ROADMAP's 1500-domain measurements).
  config.dataset.lookup_vantages = 4;
  config.dataset.chunk_domains = 4096;
  // A failing stage is recorded as degraded and counted as a failed
  // check rather than aborting the run.
  config.supervision.on_exhausted = cs::snap::OnExhausted::kDegrade;
  config.transport = p.workload == "socket_probe"
                         ? cs::netio::TransportMode::kSocket
                         : cs::netio::TransportMode::kSim;
  cs::netio::LoopbackDns::Options netio;
  netio.server_threads = p.server_threads;
  // A shared VM can stall a reactor thread for tens of milliseconds, long
  // enough for three attempts at the adaptive RTO to expire an exchange.
  // Ten attempts (backoff capped at 2 s) ride out a multi-second stall, so
  // the dataset stays exact, while the RTO floor stays low so a stall costs
  // little time.
  netio.max_attempts = 10;
  config.netio = netio;
  if (p.workload == "study_resume")
    config.checkpoint_dir = (fs::path{p.scratch_dir} / "checkpoint").string();
  else
    config.checkpoint_dir.clear();
  return config;
}

namespace {

double cpu_seconds() {
  const auto usage = cs::obs::resource_usage();
  return static_cast<double>(usage.user_cpu_us + usage.system_cpu_us) / 1e6;
}

std::uint64_t counter(std::string_view name) {
  return cs::obs::counter(name).value();
}

/// Wall and CPU time of one timed phase.
class Meter {
 public:
  Meter() : start_(Clock::now()), cpu_start_(cpu_seconds()) {}
  void stop(Pass& pass) const {
    pass.run_s = seconds_since(start_);
    pass.cpu_s = cpu_seconds() - cpu_start_;
  }

 private:
  Clock::time_point start_;
  double cpu_start_;
};

/// The supervisor neither retried nor degraded any stage.
void check_supervision(const Study& study, Checks& checks) {
  for (const auto& run : study.stage_runs())
    checks.expect(!run.degraded && run.attempts <= 1 && run.last_error.empty(),
                  "stage '" + run.stage + "' ran cleanly (attempts " +
                      std::to_string(run.attempts) + ", error '" +
                      run.last_error + "')");
}

/// Calls `fn(artifact)` with the named stage's artifact (building it if the
/// study has not yet). False for an unknown stage.
template <typename Fn>
bool with_artifact(Study& study, std::string_view stage, Fn&& fn) {
  if (stage == "dataset") fn(study.dataset());
  else if (stage == "cloud_usage") fn(study.cloud_usage());
  else if (stage == "patterns") fn(study.patterns());
  else if (stage == "regions") fn(study.regions());
  else if (stage == "capture_logs") fn(study.capture_logs());
  else if (stage == "capture") fn(study.capture());
  else if (stage == "zone_study") fn(study.zone_study());
  else if (stage == "campaign") fn(study.campaign());
  else if (stage == "isp_study") fn(study.isp_study());
  else return false;
  return true;
}

void record_digest(Study& study, std::string_view stage, Pass& pass) {
  with_artifact(study, stage, [&](const auto& artifact) {
    pass.digests[std::string{stage}] = artifact_digest(artifact);
  });
}

/// Discovered cloud subdomains / cloud subdomains the method can find
/// (on a wordlist, or in a zone that allows AXFR), from World truth.
double subdomain_recall(const cs::synth::World& world,
                        const cs::analysis::AlexaDataset& data) {
  std::unordered_set<cs::dns::Name, cs::dns::NameHash> found;
  for (const auto& sub : data.cloud_subdomains) found.insert(sub.name);
  std::size_t findable = 0;
  std::size_t discovered = 0;
  for (const auto& domain : world.domains())
    for (const auto& sub : domain.subdomains)
      if (sub.on_cloud && (sub.discoverable || domain.axfr_open)) {
        ++findable;
        discovered += found.count(sub.name);
      }
  return findable ? static_cast<double>(discovered) / findable : 0.0;
}

/// The denominator holds only what the method can find, so a correct
/// program finds all of it; a change that skips probes fails here.
void check_recall(const Pass& pass, const std::string& workload,
                  Checks& checks) {
  checks.expect(pass.subdomain_recall == 1.0,
                workload + ": every findable cloud subdomain was discovered "
                           "(subdomain_recall " +
                    std::to_string(pass.subdomain_recall) + ")");
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Obs counters a probe pass reads as deltas around its timed phase.
struct ProbeCounters {
  std::uint64_t probes, hits, cache_hits, upstream, retransmits, expirations,
      netio_exchanges;
  static ProbeCounters read() {
    const auto hits = counter("dns.enumerate.brute_hits");
    return {hits + counter("dns.enumerate.brute_misses"),
            hits,
            counter("dns.resolver.cache_hits"),
            counter("dns.resolver.upstream_queries"),
            counter("netio.client.retransmits"),
            counter("netio.client.expirations"),
            counter("netio.client.exchanges")};
  }
  ProbeCounters since(const ProbeCounters& b) const {
    return {probes - b.probes,         hits - b.hits,
            cache_hits - b.cache_hits, upstream - b.upstream,
            retransmits - b.retransmits, expirations - b.expirations,
            netio_exchanges - b.netio_exchanges};
  }
};

/// The DNS-layer metrics a traced pass reads off the timing decorator and
/// the obs counters' deltas across the timed phase.
void record_dns_layers(const TimingTransport& timing, bool socket,
                       const ProbeCounters& delta, Metrics& out) {
  const auto t = timing.totals();
  const double n = static_cast<double>(t.exchanges);
  const double probes = static_cast<double>(delta.probes);
  out.set("dns.probes", probes, "count");
  out.set("dns.probe_hit_ratio", ratio(delta.hits, probes), "ratio");
  out.set("dns.resolver.cache_hit_ratio",
          ratio(delta.cache_hits, delta.upstream), "ratio");
  out.set("dns.exchanges", n, "count");
  out.set("dns.exchanges_per_probe", ratio(n, probes), "ratio");
  out.set("dns.query_bytes_per_exchange", ratio(t.query_bytes, n), "B");
  out.set("dns.response_bytes_per_exchange", ratio(t.response_bytes, n), "B");
  out.set("dns.exchange_failed", static_cast<double>(t.failed), "count");
  // On the simulated network the decorator's interval is the server
  // answering in-line; over sockets it is the client blocked on the wire
  // while reactor threads serve.
  out.set(socket ? "netio.busy_s" : "dns.server.busy_s", t.busy_s, "s");
  if (!socket)
    out.set("dns.server.us_per_exchange", 1e6 * ratio(t.busy_s, n), "us");
  if (socket) {
    const auto latencies = timing.latencies_us();
    out.set("netio.exchange_us_p50", percentile(latencies, 0.50), "us");
    out.set("netio.exchange_us_p99", percentile(latencies, 0.99), "us");
  }
}

/// Times DatasetColumns conversion of a dataset in both directions.
void record_columns(const cs::analysis::AlexaDataset& data, SpanLog* log,
                    Metrics& out) {
  SpanLog::Scope from{log, "analysis.columns.from_dataset"};
  const auto columns = cs::analysis::DatasetColumns::from_dataset(data);
  out.set("analysis.columns.from_dataset_s", from.stop(), "s");
  SpanLog::Scope to{log, "analysis.columns.to_dataset"};
  const auto rows = columns.to_dataset();
  out.set("analysis.columns.to_dataset_s", to.stop(), "s");
}

Pass probe_pass(const Params& p, Clock::time_point setup_from, Checks& checks,
                Trace* trace) {
  SpanLog* log = trace ? &trace->spans : nullptr;
  const bool socket = p.workload == "socket_probe";
  const auto config = study_config(p);
  Pass pass;

  std::optional<Study> study;
  {
    SpanLog::Scope setup{log, "study.setup"};
    study.emplace(config);
  }
  pass.setup_s = seconds_since(setup_from);
  if (socket)
    checks.expect(study->loopback() != nullptr,
                  "socket_probe: the loopback transport started");
  // Declared after the study, so it unhooks before the study goes away.
  std::optional<TimingInstall> timing;
  if (trace) timing.emplace(study->world());

  const auto before = ProbeCounters::read();
  const auto rss_before = cs::obs::resource_usage().current_rss_kb;
  const cs::analysis::AlexaDataset* data = nullptr;
  {
    Meter meter;
    SpanLog::Scope phase{log, "analysis.dataset"};
    data = &study->dataset();
    phase.stop();
    meter.stop(pass);
  }
  const auto rss_after = cs::obs::resource_usage().current_rss_kb;
  const auto delta = ProbeCounters::read().since(before);

  pass.work = static_cast<double>(delta.probes);
  pass.work_s = pass.run_s;
  pass.subdomain_recall = subdomain_recall(study->world(), *data);
  record_digest(*study, "dataset", pass);

  check_supervision(*study, checks);
  checks.expect(delta.probes > 0, p.workload + ": brute-force probes ran");
  checks.expect(data->failed_lookup_count() == 0,
                p.workload + ": no failed lookups without faults (" +
                    std::to_string(data->failed_lookup_count()) + ")");
  checks.expect(data->unresolved_subdomain_count() == 0,
                p.workload + ": no unresolved subdomains without faults (" +
                    std::to_string(data->unresolved_subdomain_count()) + ")");
  check_recall(pass, p.workload, checks);
  if (socket)
    checks.expect(delta.expirations == 0,
                  "socket_probe: no expired exchanges (" +
                      std::to_string(delta.expirations) + ")");

  if (trace) {
    auto& out = trace->layers;
    const double probes = static_cast<double>(delta.probes);
    record_dns_layers(timing->transport(), socket, delta, out);
    const double busy = timing->transport().totals().busy_s;
    out.set("analysis.dataset.build_s", pass.run_s, "s");
    out.set("dns.client.self_s", pass.run_s - busy, "s");
    out.set("analysis.dataset.kb_per_subdomain",
            ratio(static_cast<double>(rss_after - rss_before),
                  data->cloud_subdomains.size()),
            "kB");
    if (socket) {
      const double n = static_cast<double>(delta.netio_exchanges);
      out.set("netio.client.retransmit_ratio", ratio(delta.retransmits, n),
              "ratio");
      out.set("netio.client.expiration_ratio", ratio(delta.expirations, n),
              "ratio");
    }
    record_columns(*data, log, out);
    const auto samples = timing->transport().samples();
    timing->uninstall();
    run_ladder(study->world(), config, samples, log, out);

    // Attribute the client's self time to the codec rungs it runs per
    // exchange and per probe; the rest is unattributed.
    const double codec_s =
        out.get("dns.exchanges") * 1e-9 *
            (out.get("dns.message.query_encode_ns") +
             out.get("dns.message.response_decode_ns")) +
        probes * 1e-9 * out.get("dns.name.child_ns");
    out.set("dns.client.codec_s", codec_s, "s");
    out.set("analysis.dataset.unattributed_s",
            out.get("dns.client.self_s") - codec_s, "s");
  }
  return pass;
}

Pass capture_pass(const Params& p, Clock::time_point setup_from,
                  Checks& checks, Trace* trace) {
  SpanLog* log = trace ? &trace->spans : nullptr;
  const auto config = study_config(p);
  Pass pass;

  std::optional<Study> study;
  {
    SpanLog::Scope setup{log, "study.setup"};
    study.emplace(config);
  }
  pass.setup_s = seconds_since(setup_from);

  if (!trace) {
    const auto packets_before = counter("synth.traffic.packets");
    Meter meter;
    study->capture();
    meter.stop(pass);
    pass.work = static_cast<double>(counter("synth.traffic.packets") -
                                    packets_before);
    record_digest(*study, "capture_logs", pass);
    record_digest(*study, "capture", pass);
    check_supervision(*study, checks);
  } else {
    // The same composition Study::capture_logs + Study::capture run, with a
    // timer around each public call (one span per traffic unit fed).
    auto& out = trace->layers;
    double feed_s = 0.0;
    std::size_t packets = 0;
    std::size_t max_unit = 0;
    std::uint64_t unit = 0;
    Meter meter;
    SpanLog::Scope phase{log, "capture"};
    SpanLog::Scope generate{log, "synth.traffic.generate_units"};
    cs::synth::TrafficGenerator generator{study->world(), config.traffic};
    cs::pcap::FlowAssembler assembler;
    generator.generate_units([&](std::vector<cs::pcap::Packet>&& batch) {
      SpanLog::Scope feed{log, "pcap.flow.feed", unit++};
      assembler.feed(batch);
      feed_s += feed.stop();
      packets += batch.size();
      max_unit = std::max(max_unit, batch.size());
    });
    const double generate_s = generate.stop();
    SpanLog::Scope finish{log, "pcap.flow.finish"};
    const auto flows = assembler.finish();
    const double finish_s = finish.stop();
    SpanLog::Scope analyze{log, "proto.analyze_flows"};
    const auto logs = cs::proto::analyze_flows(flows);
    const double analyze_s = analyze.stop();
    SpanLog::Scope report_span{log, "analysis.capture"};
    const auto report =
        cs::analysis::analyze_capture(logs, study->ranges(), study->rank_map());
    const double report_s = report_span.stop();
    phase.stop();
    meter.stop(pass);

    pass.work = static_cast<double>(packets);
    pass.digests["capture_logs"] = artifact_digest(logs);
    pass.digests["capture"] = artifact_digest(report);

    out.set("synth.traffic.generate_s", generate_s - feed_s, "s");
    out.set("synth.traffic.packets", static_cast<double>(packets), "count");
    out.set("synth.traffic.max_unit_packets", static_cast<double>(max_unit),
            "count");
    out.set("pcap.flow.feed_s", feed_s, "s");
    out.set("pcap.flow.finish_s", finish_s, "s");
    out.set("pcap.flow.ns_per_packet",
            1e9 * ratio(feed_s + finish_s, static_cast<double>(packets)), "ns");
    out.set("pcap.flow.flows", static_cast<double>(flows.size()), "count");
    out.set("proto.analyze_flows_s", analyze_s, "s");
    out.set("proto.conns", static_cast<double>(logs.conns.size()), "count");
    out.set("proto.http", static_cast<double>(logs.http.size()), "count");
    out.set("proto.ssl", static_cast<double>(logs.ssl.size()), "count");
    out.set("analysis.capture_s", report_s, "s");
  }
  pass.work_s = pass.run_s;
  checks.expect(pass.work > 0, "capture: packets were generated");
  return pass;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator{dir})
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

/// Times Store::save and Store::load of every cold artifact through a side
/// store, and records each artifact's encoded size.
void record_snap_layers(Study& study, const fs::path& dir, SpanLog* log,
                        Checks& checks, Metrics& out) {
  cs::snap::Store side{dir, study.config_hash()};
  for (const auto& desc : Study::stage_table()) {
    const std::string stage = desc.name;
    with_artifact(study, stage, [&](const auto& artifact) {
      using T = std::decay_t<decltype(artifact)>;
      cs::snap::Writer writer;
      encode_artifact(writer, artifact);
      SpanLog::Scope save{log, "snap.save." + stage};
      const bool saved = side.save(stage, artifact);
      out.set("snap." + stage + ".encode_s", save.stop(), "s");
      SpanLog::Scope load{log, "snap.load." + stage};
      const auto loaded = side.load<T>(stage);
      out.set("snap." + stage + ".decode_s", load.stop(), "s");
      out.set("snap." + stage + ".bytes",
              static_cast<double>(writer.bytes().size()), "B");
      checks.expect(saved && loaded.has_value(),
                    "study_resume: side store round-trips " + stage);
    });
  }
}

Pass resume_pass(const Params& p, Clock::time_point setup_from, Checks& checks,
                 Trace* trace) {
  SpanLog* log = trace ? &trace->spans : nullptr;
  const auto config = study_config(p);
  const fs::path dir = config.checkpoint_dir;
  fs::remove_all(dir);
  const auto stages = Study::stage_table();
  Pass pass;

  {
    std::optional<Study> cold;
    {
      SpanLog::Scope setup{log, "study.setup"};
      cold.emplace(config);
    }
    pass.setup_s = seconds_since(setup_from);
    std::optional<TimingInstall> timing;
    if (trace) timing.emplace(cold->world());

    const auto before = ProbeCounters::read();
    Meter meter;
    for (const auto& desc : stages) {
      SpanLog::Scope span{log, std::string{"core.stage."} + desc.name};
      checks.expect(cold->build_stage(desc.name),
                    std::string{"study_resume: stage known: "} + desc.name);
      if (trace)
        trace->layers.set(std::string{"core.stage."} + desc.name + "_s",
                          span.stop(), "s");
    }
    meter.stop(pass);
    pass.checkpoint_mb = static_cast<double>(directory_bytes(dir)) / (1 << 20);
    for (const auto& desc : stages) record_digest(*cold, desc.name, pass);
    check_supervision(*cold, checks);
    pass.subdomain_recall = subdomain_recall(cold->world(), cold->dataset());
    check_recall(pass, p.workload, checks);

    if (trace) {
      auto& out = trace->layers;
      record_dns_layers(timing->transport(), false,
                        ProbeCounters::read().since(before), out);
      timing.reset();
      record_columns(cold->dataset(), log, out);
      record_snap_layers(*cold, fs::path{p.scratch_dir} / "side", log, checks,
                         out);
      fs::remove_all(fs::path{p.scratch_dir} / "side");
    }
  }

  // Each resume is a fresh Study on the same directory resuming every
  // stage; constructing it is set-up, not resume time.
  std::map<std::string, double> stage_resume_s;
  for (unsigned r = 0; r < p.resumes; ++r) {
    Study warm{config};
    SpanLog::Scope resume{log, "core.resume", r};
    for (const auto& desc : stages) {
      SpanLog::Scope span{log, std::string{"core.resume."} + desc.name, r};
      warm.build_stage(desc.name);
      stage_resume_s[desc.name] += span.stop();
    }
    pass.work_s += resume.stop();
    pass.work += static_cast<double>(stages.size());
    // Only the dataset must come from its snapshot: a design that
    // recomputes the cheap stages on resume is still correct.
    checks.expect(std::any_of(warm.stage_runs().begin(),
                              warm.stage_runs().end(),
                              [](const cs::snap::StageRun& run) {
                                return run.stage == "dataset" &&
                                       run.from_snapshot;
                              }),
                  "study_resume: the dataset resumed from its snapshot");
    for (const auto& desc : stages)
      with_artifact(warm, desc.name, [&](const auto& artifact) {
        checks.expect(artifact_digest(artifact) == pass.digests[desc.name],
                      std::string{"study_resume: resumed digest equals cold "
                                  "digest: "} +
                          desc.name);
      });
    check_supervision(warm, checks);
  }
  if (trace && p.resumes)
    for (const auto& [stage, seconds] : stage_resume_s)
      trace->layers.set("core.resume." + stage + "_s", seconds / p.resumes,
                        "s");
  pass.resume_s = p.resumes ? pass.work_s / p.resumes : 0.0;
  fs::remove_all(dir);
  return pass;
}

}  // namespace

Pass run_pass(const Params& params, Clock::time_point setup_from,
              Checks& checks, Trace* trace) {
  cs::exec::ScopedThreads threads{params.threads};
  SpanLog::Scope span{trace ? &trace->spans : nullptr,
                      "pass." + params.workload};
  // Writing 5 to clear_refs resets the kernel's peak-RSS mark, so VmHWM
  // covers this pass alone rather than the largest pass of the process.
  // Where the file is not writable the mark spans the process instead.
  std::ofstream{"/proc/self/clear_refs"} << "5";
  Pass pass;
  if (params.workload == "probe" || params.workload == "socket_probe")
    pass = probe_pass(params, setup_from, checks, trace);
  else if (params.workload == "capture")
    pass = capture_pass(params, setup_from, checks, trace);
  else if (params.workload == "study_resume")
    pass = resume_pass(params, setup_from, checks, trace);
  else
    throw std::invalid_argument{"unknown workload '" + params.workload + "'"};
  pass.rss_peak_mb =
      static_cast<double>(cs::obs::resource_usage().peak_rss_kb) / 1024.0;
  return pass;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog{
      {"setup_s", "s"},
      {"run_s", "s"},
      {"cpu_s", "s"},
      {"rss_peak_mb", "MB"},
      {"work_per_s", "1/s"},
  };
  return catalog;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const auto catalog = [] {
    std::vector<std::pair<std::string, std::string>> c{
        // Workload-level figures the end-to-end list cannot carry because
        // not every workload has them.
        {"probes_per_s", "probes/s"},
        {"packets_per_s", "packets/s"},
        {"resume_s", "s"},
        {"checkpoint_mb", "MB"},
        {"subdomain_recall", "ratio"},
        // dns, transport and server side.
        {"dns.exchanges", "count"},
        {"dns.exchanges_per_probe", "ratio"},
        {"dns.query_bytes_per_exchange", "B"},
        {"dns.response_bytes_per_exchange", "B"},
        {"dns.exchange_failed", "count"},
        {"dns.server.busy_s", "s"},
        {"dns.server.us_per_exchange", "us"},
        // dns, client side.
        {"dns.client.self_s", "s"},
        {"dns.client.codec_s", "s"},
        {"dns.resolver.cache_hit_ratio", "ratio"},
        {"dns.probes", "count"},
        {"dns.probe_hit_ratio", "ratio"},
        // dns ladder.
        {"dns.name.child_ns", "ns"},
        {"dns.message.query_encode_ns", "ns"},
        {"dns.message.query_decode_ns", "ns"},
        {"dns.server.handle_ns", "ns"},
        {"dns.message.response_encode_ns", "ns"},
        {"dns.message.response_decode_ns", "ns"},
        {"dns.resolver.resolve_us", "us"},
        {"dns.enumerate.domain_ms", "ms"},
        // analysis (dataset) and exec.
        {"analysis.dataset.build_s", "s"},
        {"analysis.dataset.unattributed_s", "s"},
        {"analysis.dataset.kb_per_subdomain", "kB"},
        {"exec.cpu_util", "ratio"},
        // synth, pcap, proto, analysis (capture, columns).
        {"synth.world.build_s", "s"},
        {"synth.traffic.generate_s", "s"},
        {"synth.traffic.packets", "count"},
        {"synth.traffic.max_unit_packets", "count"},
        {"pcap.flow.feed_s", "s"},
        {"pcap.flow.finish_s", "s"},
        {"pcap.flow.ns_per_packet", "ns"},
        {"pcap.flow.flows", "count"},
        {"proto.analyze_flows_s", "s"},
        {"proto.conns", "count"},
        {"proto.http", "count"},
        {"proto.ssl", "count"},
        {"analysis.capture_s", "s"},
        {"analysis.columns.from_dataset_s", "s"},
        {"analysis.columns.to_dataset_s", "s"},
    };
    for (const auto& desc : Study::stage_table()) {
      const std::string s = desc.name;
      c.emplace_back("core.stage." + s + "_s", "s");
      c.emplace_back("core.resume." + s + "_s", "s");
    }
    for (const auto& desc : Study::stage_table()) {
      const std::string s = desc.name;
      c.emplace_back("snap." + s + ".encode_s", "s");
      c.emplace_back("snap." + s + ".decode_s", "s");
      c.emplace_back("snap." + s + ".bytes", "B");
    }
    c.insert(c.end(), {
                          {"netio.exchange_us_p50", "us"},
                          {"netio.exchange_us_p99", "us"},
                          {"netio.busy_s", "s"},
                          {"netio.client.retransmit_ratio", "ratio"},
                          {"netio.client.expiration_ratio", "ratio"},
                          {"trace.untraced_run_s", "s"},
                          {"trace.traced_run_s", "s"},
                          {"trace.overhead_s", "s"},
                          {"trace.spans", "count"},
                      });
    return c;
  }();
  return catalog;
}

}  // namespace perfbench
