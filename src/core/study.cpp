#include "core/study.h"

#include "analysis/columns.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pcap/flow.h"
#include "util/env.h"

namespace cs::core {
namespace {

/// Marks one pipeline-stage build: a span for the trace, a counter for the
/// sidecars, and a debug log line on completion.
class StageScope {
 public:
  explicit StageScope(std::string stage)
      : stage_(std::move(stage)), span_(stage_) {
    start_us_ = obs::Tracer::instance().epoch_now_us();
  }
  ~StageScope() {
    obs::counter("study.stages_built").inc();
    // One RSS counter sample per stage boundary: enough to draw a memory
    // lane under the span lanes in Perfetto without taxing inner loops.
    // No-op when collection is off.
    obs::RunReport::sample_counter_lane();
    obs::log_debug("core.study", "built {} in {:.1f} ms", stage_,
                   (obs::Tracer::instance().epoch_now_us() - start_us_) /
                       1000.0);
  }

 private:
  std::string stage_;
  obs::Span span_;
  std::uint64_t start_us_ = 0;
};

/// Throws before the build body runs when the active fault plan aborts
/// `stage`, so an aborted stage leaves no partial side effects behind.
void maybe_inject_abort(const char* stage) {
  const auto* plan = fault::active_plan();
  if (!plan || !plan->decide(fault::Kind::kStageAbort,
                             fault::stage_abort_key(stage)))
    return;
  obs::counter("fault.stage.abort").inc();
  throw std::runtime_error{std::string{"injected stage abort: stage '"} +
                           stage + "'"};
}

/// Every stage, dependencies before dependents. Stages are
/// pure, so any order builds the same artifacts; this one is what
/// build_all() and --halt-after walk.
constexpr Study::StageDesc kStageTable[] = {
    {"dataset"},    {"cloud_usage"},  {"patterns"},
    {"regions"},    {"capture_logs"}, {"capture"},
    {"zone_study"}, {"campaign"},     {"isp_study"},
};

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)) {
  {
    StageScope stage{"study.world"};
    world_ = std::make_unique<synth::World>(config_.world);
  }
  const auto mode =
      config_.transport.value_or(netio::transport_mode_from_env());
  if (mode == netio::TransportMode::kSocket) {
    loopback_ = std::make_unique<netio::LoopbackDns>(
        world_->network(),
        config_.netio.value_or(netio::LoopbackDns::options_from_env()));
    if (loopback_->start()) {
      world_->set_transport_override(&loopback_->transport());
      obs::log_info("core.study",
                    "resolver traffic over localhost UDP (port {})",
                    loopback_->server().port());
    } else {
      obs::log_warn("core.study",
                    "socket transport unavailable; falling back to the "
                    "in-process network");
      loopback_.reset();
    }
  }
  std::string dir = config_.checkpoint_dir;
  if (dir.empty())
    if (const auto env = util::env_text(util::Knob::kCheckpoint)) dir = *env;
  if (!dir.empty()) {
    store_.emplace(dir, config_hash());
    obs::log_info("core.study", "checkpointing to {} (config hash 0x{:x})",
                  dir, store_->config_hash());
  }
}

Study::~Study() {
  // Unhook resolvers before the socket backend goes away (new resolvers
  // made during teardown fall back to the in-process network).
  if (loopback_ && world_) world_->set_transport_override(nullptr);
}

std::uint64_t Study::config_hash() const {
  // Only fields that shape stage artifacts participate; checkpoint_dir,
  // supervision, and transport steer *how* stages run (or which wire
  // carries the bytes), never what a completed stage produced.
  snap::Writer w;
  w.u64(config_.world.seed);
  w.u64(config_.world.domain_count);
  w.f64(config_.world.adoption_scale);
  w.boolean(config_.world.plant_marquee_domains);
  w.u64(config_.traffic.seed);
  w.f64(config_.traffic.start_time);
  w.f64(config_.traffic.duration_sec);
  w.u64(config_.traffic.total_web_bytes);
  w.u64(config_.traffic.emitted_flow_cap);
  w.count(config_.dataset.wordlist.size());
  for (const auto& word : config_.dataset.wordlist) w.str(word);
  w.boolean(config_.dataset.attempt_axfr);
  w.u64(config_.dataset.lookup_vantages);
  w.boolean(config_.dataset.collect_name_servers);
  // chunk_domains and on_chunk deliberately do NOT participate — chunking
  // is artifact-invariant, so any chunk size may resume any checkpoint.
  w.u64(config_.campaign_vantages);
  w.f64(config_.campaign_days);
  w.u64(config_.isp_vantages);
  return snap::fnv1a(w.bytes());
}

template <typename T, typename Build>
const T& Study::stage(const char* name, std::optional<T>& slot,
                      Build&& build) {
  if (slot) return *slot;
  auto& run = stage_runs_.emplace_back();
  run.stage = name;
  if (store_) {
    if (auto loaded = store_->template load<T>(name)) {
      run.from_snapshot = true;
      slot = std::move(*loaded);
      obs::counter("study.stages_resumed").inc();
      return *slot;
    }
  }
  {
    StageScope scope{std::string{"study."} + name};
    run.attempts = 1;
    try {
      maybe_inject_abort(name);
      slot = build();
    } catch (const std::exception& e) {
      run.last_error = e.what();
      if (config_.supervision.on_exhausted == snap::OnExhausted::kFail)
        throw std::runtime_error{"stage '" + run.stage +
                                 "' failed: " + run.last_error};
      run.degraded = true;
      slot = T{};
    }
  }
  if (store_ && !run.degraded) store_->save(name, *slot);
  return *slot;
}

const analysis::CloudRanges& Study::ranges() {
  if (!ranges_) {
    StageScope stage{"study.ranges"};
    ranges_.emplace(world_->ec2(), world_->azure());
  }
  return *ranges_;
}

const std::map<std::string, std::size_t>& Study::rank_map() {
  if (!rank_map_) {
    StageScope stage{"study.rank_map"};
    rank_map_.emplace();
    for (const auto& domain : world_->domains())
      (*rank_map_)[domain.name.to_string()] = domain.rank;
  }
  return *rank_map_;
}

const analysis::AlexaDataset& Study::dataset() {
  return stage("dataset", dataset_, [&] {
    auto options = config_.dataset;
    analysis::DatasetBuilder::Resume resume;
    if (store_) {
      // Mid-stage checkpoint: a chunked build leaves "dataset.partial"
      // at chunk boundaries, so a crash inside the (paper-scale: hours
      // long) dataset stage only loses the current chunk. Resuming
      // from any chunk size is byte-identical — per-domain probes are
      // independent and merge in rank order.
      if (auto partial = store_->template load<analysis::PartialDataset>(
              "dataset.partial")) {
        resume.next_domain = static_cast<std::size_t>(partial->next_domain);
        resume.dataset = partial->columns.to_dataset();
      }
      options.on_chunk = [this](const analysis::AlexaDataset& so_far,
                                std::size_t next_domain) {
        analysis::PartialDataset partial;
        partial.columns = analysis::DatasetColumns::from_dataset(so_far);
        partial.next_domain = next_domain;
        store_->save("dataset.partial", partial);
      };
    }
    analysis::DatasetBuilder builder{*world_, options};
    auto built = builder.build(std::move(resume));
    // The full "dataset" snapshot saved by stage() supersedes any
    // partial; retire it so a config change can't leave one around.
    if (store_) store_->remove("dataset.partial");
    return built;
  });
}

const analysis::CloudUsageReport& Study::cloud_usage() {
  return stage("cloud_usage", cloud_usage_, [&] {
    const auto& data = dataset();
    return analysis::analyze_cloud_usage(data);
  });
}

const analysis::PatternReport& Study::patterns() {
  return stage("patterns", patterns_, [&] {
    const auto& data = dataset();
    return analysis::analyze_patterns(data, ranges());
  });
}

const analysis::RegionReport& Study::regions() {
  return stage("regions", regions_, [&] {
    const auto& data = dataset();
    return analysis::analyze_regions(data, ranges());
  });
}

const proto::TraceLogs& Study::capture_logs() {
  return stage("capture_logs", capture_logs_, [&] {
    // Streamed as Bro reads a trace: frames arrive in bounded batches
    // and die once the analyzer has fed them to their flows, which keep
    // HTTP/TLS reader state, not payload. Units are tuple-disjoint, so
    // every flow of a unit is complete when the unit ends and closes into
    // its records there. The analyzer orders records by pcap::FlowOrder,
    // so this is byte-identical to analyze_flows(assemble_flows(
    // generator.generate())).
    synth::TrafficGenerator generator{*world_, config_.traffic};
    proto::StreamAnalyzer logs;
    generator.generate_batches(
        [&](std::vector<pcap::Packet>&& batch, bool unit_ends) {
          obs::Span span{"capture.batch"};
          logs.feed(batch);
          if (unit_ends) logs.end_unit();
        });
    return logs.finish();
  });
}

const analysis::CaptureReport& Study::capture() {
  return stage("capture", capture_, [&] {
    const auto& logs = capture_logs();
    return analysis::analyze_capture(logs, ranges(), rank_map());
  });
}

internet::WideAreaModel& Study::wan_model() {
  if (!wan_model_)
    wan_model_.emplace(
        internet::WideAreaModel::Config{.seed = config_.world.seed ^ 0x3A});
  return *wan_model_;
}

internet::AsTopology& Study::as_topology() {
  if (!as_topology_)
    as_topology_.emplace(world_->ec2(), config_.world.seed ^ 0xA5);
  return *as_topology_;
}

const analysis::ZoneStudy& Study::zone_study() {
  return stage("zone_study", zone_study_, [&] {
    const auto& data = dataset();
    // Both estimators launch their carto probe fleets into this copy.
    cloud::Provider ec2 = world_->ec2();
    carto::ProximityEstimator proximity{
        ec2,
        carto::ProximityEstimator::Options{.seed = config_.world.seed ^ 1}};
    carto::LatencyZoneEstimator latency{
        ec2, wan_model(),
        carto::LatencyZoneEstimator::Options{.seed = config_.world.seed ^ 2}};
    return analysis::run_zone_study(data, ranges(), *world_, proximity,
                                    latency);
  });
}

const analysis::Campaign& Study::campaign() {
  return stage("campaign", campaign_, [&] {
    const auto vantages =
        internet::planetlab_vantages(config_.campaign_vantages);
    std::vector<const cloud::Region*> regions;
    for (const auto& region : world_->ec2().regions())
      regions.push_back(&region);
    return analysis::run_campaign(wan_model(), vantages, regions,
                                  config_.campaign_days);
  });
}

const analysis::IspStudy& Study::isp_study() {
  return stage("isp_study", isp_study_, [&] {
    const auto vantages = internet::planetlab_vantages(config_.isp_vantages);
    cloud::Provider ec2 = world_->ec2();
    return analysis::run_isp_study(ec2, as_topology(), vantages);
  });
}

std::span<const Study::StageDesc> Study::stage_table() { return kStageTable; }

bool Study::build_stage(std::string_view name) {
  if (name == "dataset") dataset();
  else if (name == "cloud_usage") cloud_usage();
  else if (name == "patterns") patterns();
  else if (name == "regions") regions();
  else if (name == "capture_logs") capture_logs();
  else if (name == "capture") capture();
  else if (name == "zone_study") zone_study();
  else if (name == "campaign") campaign();
  else if (name == "isp_study") isp_study();
  else return false;
  return true;
}

void Study::build_all() {
  for (const auto& desc : stage_table()) build_stage(desc.name);
}

std::size_t Study::stages_resumed() const noexcept {
  std::size_t n = 0;
  for (const auto& run : stage_runs_)
    if (run.from_snapshot) ++n;
  return n;
}

}  // namespace cs::core
