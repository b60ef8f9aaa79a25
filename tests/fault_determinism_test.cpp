// The cs::fault acceptance gate: with a fault plan installed, a study at
// CS_THREADS=8 renders byte-identically to the same study at CS_THREADS=1,
// on multiple seeds. Faults are keyed by stable event identities (query
// bytes, record index, vantage index), never by thread schedule, so the
// injected damage — and the data-quality accounting of it — must not move
// when the thread count does.
//
// A survivable wire spec is one more input: on the simulated wire a
// dropped first attempt is retransmitted in simulated time, so the
// dataset artifact must equal the unimpaired one at CS_THREADS 1 and 8,
// with equal, nonzero wire counters. The socket transport's copy of this
// proof (netio_chaos_determinism_test) waits out real RTOs, so it runs
// only at CS_THREADS=8.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/snapshot.h"
#include "analysis/widearea.h"
#include "core/report.h"
#include "core/study.h"
#include "exec/config.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "snap/codec.h"

namespace cs::core {
namespace {

constexpr std::string_view kFaultSpec =
    "loss=0.02,timeout=0.01,truncate=0.005,servfail=0.01,vantage_drop=0.02,"
    "seed=7";

StudyConfig small_config(std::uint64_t seed) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 100;
  config.traffic.total_web_bytes = 2ull * 1024 * 1024;
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = false;
  config.campaign_vantages = 6;
  config.campaign_days = 0.25;
  return config;
}

struct Rendered {
  std::string table1;
  std::string table3;
  std::string fig12;
  std::string quality;  ///< the fault-fed data-quality section
};

Rendered render_with_threads(std::uint64_t seed, unsigned threads) {
  // The data-quality table reads process-global counters; zero them so
  // each run reports only its own faults.
  obs::MetricsRegistry::instance().reset_values();
  exec::ScopedThreads guard{threads};
  Study study{small_config(seed)};
  Rendered out;
  out.table1 = render_table1(study.capture());
  out.table3 = render_table3(study.cloud_usage());
  out.fig12 = render_fig12(analysis::optimal_k_regions(study.campaign()));
  out.quality = render_data_quality(study);
  return out;
}

class FaultDeterminism : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultDeterminism, EightThreadsMatchesOneThreadUnderFaults) {
  fault::ScopedPlan plan{kFaultSpec};
  const auto sequential = render_with_threads(GetParam(), 1);
  const auto parallel = render_with_threads(GetParam(), 8);
  EXPECT_EQ(sequential.table1, parallel.table1);
  EXPECT_EQ(sequential.table3, parallel.table3);
  EXPECT_EQ(sequential.fig12, parallel.fig12);
  EXPECT_EQ(sequential.quality, parallel.quality);
}

/// The wire kinds the first-attempt rule makes survivable, at the rates
/// the socket survivability case uses.
constexpr std::string_view kSurvivableWireSpec =
    "drop=0.06,dup=0.05,reorder=0.08,delay_us=300,jitter_us=200,seed=7";

constexpr std::array<const char*, 5> kWireCounters = {
    "fault.wire.drop", "fault.wire.dup", "fault.wire.reorder",
    "fault.wire.delay", "fault.wire.corrupt"};

struct WireRun {
  std::vector<std::uint8_t> dataset;  ///< the encoded dataset artifact
  std::vector<std::uint64_t> counters;  ///< kWireCounters, in order
};

WireRun dataset_with_threads(std::uint64_t seed, unsigned threads) {
  obs::MetricsRegistry::instance().reset_values();
  exec::ScopedThreads guard{threads};
  Study study{small_config(seed)};
  snap::Writer writer;
  snap::encode_artifact(writer, study.dataset());
  const auto bytes = writer.bytes();
  WireRun run{{bytes.begin(), bytes.end()}, {}};
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  for (const char* name : kWireCounters)
    run.counters.push_back(snapshot.counter(name));
  return run;
}

TEST_P(FaultDeterminism, SurvivableWireKeepsDatasetByteIdentical) {
  std::vector<std::uint8_t> clean;
  {
    fault::ScopedPlan unimpaired{fault::Spec{}};
    clean = dataset_with_threads(GetParam(), 1).dataset;
  }
  ASSERT_FALSE(clean.empty());
  fault::ScopedPlan plan{kSurvivableWireSpec};
  const auto sequential = dataset_with_threads(GetParam(), 1);
  const auto parallel = dataset_with_threads(GetParam(), 8);
  EXPECT_EQ(clean, sequential.dataset) << "CS_THREADS=1";
  EXPECT_EQ(clean, parallel.dataset) << "CS_THREADS=8";
  EXPECT_EQ(sequential.counters, parallel.counters);
  // Drop is the kind the simulated wire executes; the timing-only kinds
  // cannot act on a synchronous exchange, and corrupt acts on sockets.
  EXPECT_GT(sequential.counters[0], 0u)
      << "plan dropped nothing; the identity proves nothing";
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, FaultDeterminism,
                         testing::Values(2013ull, 777ull));

TEST(FaultDataQuality, StudyUnderFaultsCompletesWithPopulatedSection) {
  obs::MetricsRegistry::instance().reset_values();
  fault::ScopedPlan plan{"loss=0.02,timeout=0.01,seed=42"};
  Study study{small_config(2013)};
  const std::string quality = render_data_quality(study);
  EXPECT_NE(quality.find("Fault plan:"), std::string::npos);
  EXPECT_NE(quality.find("loss=0.02"), std::string::npos);
  // Thousands of simulated exchanges at 2-3% damage: faults definitely
  // fired, and the consumers recorded them.
  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  EXPECT_GT(snapshot.counter("fault.dns.loss") +
                snapshot.counter("fault.dns.timeout"),
            0u);
  EXPECT_GT(snapshot.counter("dns.resolver.timeouts"), 0u);
  EXPECT_GT(study.dataset().failed_lookup_count() +
                study.dataset().unresolved_subdomain_count(),
            0u);
}

TEST(FaultDataQuality, NoPlanReportsNone) {
  Study study{small_config(777)};
  const std::string quality = render_data_quality(study);
  EXPECT_NE(quality.find("none (CS_FAULT unset)"), std::string::npos);
}

}  // namespace
}  // namespace cs::core
