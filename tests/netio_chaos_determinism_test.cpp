// The fault plan's wire kinds on real datagrams, split by survivability.
//
// Survivable plans (drop/dup/reorder/delay, no corruption): only an
// exchange's first attempt may drop, so every exchange still completes
// with unchanged answer bytes, and a study's dataset artifact is
// byte-identical impaired vs unimpaired — the resilience machinery
// absorbs the pressure without ever reaching a terminal state. Checked
// against the sim artifact (which the socket determinism test already
// pins equal to the unimpaired socket artifact), two seeds at
// CS_THREADS=8. The CS_THREADS 1 and 8 proof runs on the simulated wire,
// in fault_determinism_test.
//
// Unsurvivable plans (corrupt > 0): the run must degrade gracefully —
// complete without hangs, with every failed exchange accounted to
// exactly one cause. Exercised twice, once tuned to trip the circuit
// breaker and once to exhaust the retry budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/study.h"
#include "exec/config.h"
#include "fault/fault.h"
#include "netio/loopback.h"
#include "obs/metrics.h"
#include "analysis/snapshot.h"
#include "snap/codec.h"

namespace cs::core {
namespace {

StudyConfig small_config(std::uint64_t seed, netio::TransportMode mode) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 60;
  config.dataset.wordlist = {"www", "mail", "api", "cdn", "dev", "static"};
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = true;
  config.transport = mode;
  return config;
}

/// Loss, duplication, reordering, and sub-RTO delay — everything the
/// first-attempt rule makes survivable — at rates high enough to exercise
/// every impairment across a 60-domain study.
constexpr const char* kSurvivableWire =
    "drop=0.06,dup=0.05,reorder=0.08,delay_us=300,jitter_us=200";

netio::LoopbackDns::Options survivable_netio() {
  netio::LoopbackDns::Options options;
  options.rto_us = 20'000;  // adaptive band [5ms, 2s] brackets this
  return options;
}

std::vector<std::uint8_t> dataset_bytes(StudyConfig config,
                                        unsigned threads) {
  exec::ScopedThreads guard{threads};
  Study study{std::move(config)};
  snap::Writer writer;
  snap::encode_artifact(writer, study.dataset());
  const auto bytes = writer.bytes();
  return {bytes.begin(), bytes.end()};
}

class ChaosDeterminism : public testing::TestWithParam<unsigned> {};

TEST_P(ChaosDeterminism, SurvivableProfileKeepsArtifactByteIdentical) {
  const unsigned threads = GetParam();
  for (const std::uint64_t seed : {2013ull, 5077ull}) {
    std::vector<std::uint8_t> clean;
    {
      fault::ScopedPlan unimpaired{fault::Spec{}};
      clean = dataset_bytes(small_config(seed, netio::TransportMode::kSim),
                            threads);
    }
    ASSERT_FALSE(clean.empty());

    fault::ScopedPlan wire{kSurvivableWire};
    const auto before = obs::MetricsRegistry::instance().snapshot();
    auto config = small_config(seed, netio::TransportMode::kSocket);
    config.netio = survivable_netio();
    const auto chaotic = dataset_bytes(std::move(config), threads);
    const auto after = obs::MetricsRegistry::instance().snapshot();

    EXPECT_EQ(clean, chaotic)
        << "survivable wire plan changed the artifact at seed " << seed
        << ", CS_THREADS=" << threads;

    // The wire really was hostile...
    const auto impairments = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    EXPECT_GT(impairments("fault.wire.drop") + impairments("fault.wire.dup") +
                  impairments("fault.wire.reorder") +
                  impairments("fault.wire.delay"),
              0u)
        << "plan injected nothing; the identity proves nothing";
    // ...yet no exchange ever reached a terminal resilience state: the
    // first-attempt rule turns every impairment into pressure, never
    // failure.
    EXPECT_EQ(impairments("netio.client.expirations"), 0u);
    EXPECT_EQ(impairments("netio.client.breaker_fastfails"), 0u);
    EXPECT_EQ(impairments("netio.client.retry_budget_rejections"), 0u);
    EXPECT_EQ(impairments("netio.client.hang_guard_trips"), 0u);
    EXPECT_EQ(impairments("fault.wire.corrupt"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ChaosDeterminism, testing::Values(8u));

// --- unsurvivable profiles: graceful degradation --------------------------

StudyConfig tiny_config(std::uint64_t seed) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 25;
  config.dataset.wordlist = {"www", "mail", "api", "cdn"};
  config.dataset.lookup_vantages = 1;
  config.dataset.collect_name_servers = true;
  config.transport = netio::TransportMode::kSocket;
  return config;
}

/// corrupt=1 flips one bit in every datagram, both directions: answers
/// die in flight (bad frame, bad mux ID, undecodable DNS bytes), and the
/// resilience machinery must carry the run to completion.
constexpr const char* kCorruptingWire = "corrupt=1";

netio::LoopbackDns::Options corrupting_netio() {
  netio::LoopbackDns::Options options;
  options.rto_us = 5'000;
  options.max_rto_us = 20'000;  // keep the backoff schedule test-sized
  return options;
}

/// Every settled exchange has exactly one cause; the sum of causes is
/// the number of exchanges started. This is the exact-accounting
/// invariant render_data_quality reports against.
void expect_exact_accounting(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after) {
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("netio.client.exchanges"),
            delta("netio.client.responses") +
                delta("netio.client.unreachable") +
                delta("netio.client.expirations") +
                delta("netio.client.retry_budget_rejections") +
                delta("netio.client.breaker_fastfails") +
                delta("netio.client.hang_guard_trips"));
  EXPECT_GT(delta("fault.wire.corrupt"), 0u);
  EXPECT_EQ(delta("netio.client.hang_guard_trips"), 0u) << "run hung";
}

TEST(ChaosDegradation, CorruptingWireTripsBreakersAndStillCompletes) {
  fault::ScopedPlan wire{kCorruptingWire};
  auto config = tiny_config(911);
  config.netio = corrupting_netio();
  // A hair-trigger breaker with an hour-long cooldown: one silent expiry
  // opens a server's breaker and everything else to it fast-fails — the
  // run finishes on fast failures, not timeouts. Threshold 1 because a
  // corrupted response whose flipped bit lands past the mux ID still
  // settles as a transport success and resets a longer consecutive-failure
  // count, making any threshold > 1 scheduling-dependent.
  config.netio->breaker_threshold = 1;
  config.netio->breaker_cooldown_us = 3'600'000'000ULL;

  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto bytes = dataset_bytes(std::move(config), 8);
  const auto after = obs::MetricsRegistry::instance().snapshot();

  EXPECT_FALSE(bytes.empty()) << "degraded run still produces an artifact";
  expect_exact_accounting(before, after);
  EXPECT_GT(after.counter("netio.client.expirations") -
                before.counter("netio.client.expirations"),
            0u);
  EXPECT_GT(after.counter("netio.client.breaker_trips") -
                before.counter("netio.client.breaker_trips"),
            0u);
  EXPECT_GT(after.counter("netio.client.breaker_fastfails") -
                before.counter("netio.client.breaker_fastfails"),
            0u);
}

TEST(ChaosDegradation, CorruptingWireExhaustsRetryBudgetAndStillCompletes) {
  fault::ScopedPlan wire{kCorruptingWire};
  auto config = tiny_config(912);
  config.netio = corrupting_netio();
  // No breaker (threshold out of reach), a five-token budget that never
  // refills: once it drains, every exchange fails at its first deadline
  // with a budget rejection instead of feeding a retry storm.
  config.netio->breaker_threshold = 1'000'000;
  config.netio->retry_budget_credit = 0.0;
  config.netio->retry_budget_cap = 5.0;

  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto bytes = dataset_bytes(std::move(config), 8);
  const auto after = obs::MetricsRegistry::instance().snapshot();

  EXPECT_FALSE(bytes.empty()) << "degraded run still produces an artifact";
  expect_exact_accounting(before, after);
  EXPECT_GT(after.counter("netio.client.retry_budget_rejections") -
                before.counter("netio.client.retry_budget_rejections"),
            0u);
}

}  // namespace
}  // namespace cs::core
