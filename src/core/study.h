#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "analysis/capture.h"
#include "analysis/cloud_usage.h"
#include "analysis/dataset.h"
#include "analysis/isp.h"
#include "analysis/patterns.h"
#include "analysis/regions.h"
#include "analysis/snapshot.h"
#include "analysis/widearea.h"
#include "analysis/zones.h"
#include "internet/traceroute.h"
#include "netio/loopback.h"
#include "snap/store.h"
#include "snap/supervisor.h"
#include "synth/traffic.h"
#include "synth/world.h"

/// CloudScope's front door: one object that owns the simulated universe
/// and builds each stage of the paper's pipeline once, caching results in
/// memory and, when a checkpoint directory is configured, on disk so a
/// killed run resumes instead of starting over.
///
/// Every stage is a pure function of the config: the World is read-only
/// once built, and a stage that launches instances (traffic tenants,
/// probe fleets) launches into its own copy of the provider. So stages
/// may be built, resumed or skipped in any order with identical results,
/// and a stage that throws would throw again: its one build either
/// succeeds or the fail/degrade policy (`StudyConfig::supervision`)
/// decides what the run does next.
///
/// Typical use:
///   cs::core::Study study{cs::core::StudyConfig{}};
///   const auto& usage = study.cloud_usage();     // §3.2
///   const auto& patterns = study.patterns();     // §4.1
///   const auto& zones = study.zone_study();      // §4.3
namespace cs::core {

struct StudyConfig {
  synth::WorldConfig world;
  synth::TrafficConfig traffic;
  analysis::DatasetBuilder::Options dataset;
  /// Scale for §5 experiments.
  std::size_t campaign_vantages = 40;
  double campaign_days = 1.0;
  std::size_t isp_vantages = 100;

  /// Where stage snapshots live; empty defers to CS_CHECKPOINT (and when
  /// that is unset too, checkpointing is off). Deliberately excluded from
  /// the config hash: pointing two runs of the same study at different
  /// directories must not invalidate their snapshots.
  std::string checkpoint_dir;
  /// Whether a stage whose build throws fails the run or degrades it.
  /// Also excluded from the hash — the policy decides what happens when a
  /// stage fails, never what a completed stage produced.
  snap::SupervisorOptions supervision;

  /// Which wire carries resolver traffic: the in-process simulated
  /// network or the netio live-socket backend (real localhost UDP).
  /// nullopt defers to CS_TRANSPORT. Excluded from the config hash — the
  /// dataset is byte-identical over either backend at the same seed, so
  /// switching transports must not invalidate snapshots.
  std::optional<netio::TransportMode> transport;
  /// Socket-backend sizing and retransmit schedule. nullopt defers to
  /// the CS_NETIO_* knobs; a set value (even the defaults) overrides them.
  /// Wire impairment is not configured here: it is the process-wide fault
  /// plan (CS_FAULT, or fault::ScopedPlan in tests). Excluded from the
  /// config hash for the same reason as `transport`: the wire's behaviour
  /// never shapes what a completed stage produced.
  std::optional<netio::LoopbackDns::Options> netio;
};

class Study {
 public:
  explicit Study(StudyConfig config);
  ~Study();

  const StudyConfig& config() const noexcept { return config_; }
  synth::World& world() noexcept { return *world_; }
  const analysis::CloudRanges& ranges();

  /// Alexa-style rank per registered domain (for capture-table joins).
  const std::map<std::string, std::size_t>& rank_map();

  // --- pipeline stages, built on first use and cached -------------------
  const analysis::AlexaDataset& dataset();
  const analysis::CloudUsageReport& cloud_usage();
  const analysis::PatternReport& patterns();
  const analysis::RegionReport& regions();
  const proto::TraceLogs& capture_logs();
  const analysis::CaptureReport& capture();
  const analysis::ZoneStudy& zone_study();
  const analysis::Campaign& campaign();
  const analysis::IspStudy& isp_study();
  internet::WideAreaModel& wan_model();
  internet::AsTopology& as_topology();

  // --- stage table & supervision ----------------------------------------

  /// One pipeline stage.
  struct StageDesc {
    const char* name;
  };
  /// Every stage, dependencies before dependents. (ranges/
  /// rank_map/wan_model/as_topology are cheap derived views, not stages.)
  static std::span<const StageDesc> stage_table();

  /// Builds (or resumes) the named stage; false if the name is unknown.
  bool build_stage(std::string_view name);
  /// Builds (or resumes) every stage in table order.
  void build_all();

  /// Per-stage build records, in the order stages were entered.
  /// A deque so records stay stable while nested stage builds append.
  const std::deque<snap::StageRun>& stage_runs() const noexcept {
    return stage_runs_;
  }
  std::size_t stages_resumed() const noexcept;

  /// FNV-1a over every config field that shapes stage artifacts (world,
  /// traffic, dataset options, campaign and ISP scale). Snapshots bind to
  /// this; checkpoint_dir and supervision do not participate.
  std::uint64_t config_hash() const;

  /// The active checkpoint store, or nullopt when checkpointing is off.
  const std::optional<snap::Store>& checkpoint_store() const noexcept {
    return store_;
  }

  /// The live-socket backend, or nullptr when resolver traffic rides the
  /// in-process network.
  const netio::LoopbackDns* loopback() const noexcept {
    return loopback_.get();
  }

 private:
  /// The lazy-build skeleton every stage accessor shares: the artifact
  /// from its snapshot when there is one, else one run of `build`. When
  /// the fault plan aborts the stage or `build` throws, kFail rethrows
  /// "stage '<name>' failed: <error>" and kDegrade records the error and
  /// substitutes an unsnapshotted `T{}`.
  template <typename T, typename Build>
  const T& stage(const char* name, std::optional<T>& slot, Build&& build);

  StudyConfig config_;
  std::unique_ptr<synth::World> world_;
  /// Live-socket backend (CS_TRANSPORT=socket); declared after world_ so
  /// it stops before the network it serves is torn down.
  std::unique_ptr<netio::LoopbackDns> loopback_;
  std::optional<snap::Store> store_;
  std::deque<snap::StageRun> stage_runs_;
  std::optional<analysis::CloudRanges> ranges_;
  std::optional<std::map<std::string, std::size_t>> rank_map_;
  std::optional<analysis::AlexaDataset> dataset_;
  std::optional<analysis::CloudUsageReport> cloud_usage_;
  std::optional<analysis::PatternReport> patterns_;
  std::optional<analysis::RegionReport> regions_;
  std::optional<proto::TraceLogs> capture_logs_;
  std::optional<analysis::CaptureReport> capture_;
  std::optional<analysis::ZoneStudy> zone_study_;
  std::optional<analysis::Campaign> campaign_;
  std::optional<analysis::IspStudy> isp_study_;
  std::optional<internet::WideAreaModel> wan_model_;
  std::optional<internet::AsTopology> as_topology_;
};

}  // namespace cs::core
