// The fault plan's wire kinds on real datagrams, split by survivability.
//
// Survivable plans (drop/dup/reorder/delay, no corruption): only an
// exchange's first attempt may drop, so every exchange still completes
// with unchanged answer bytes, and a study's dataset artifact is
// byte-identical impaired vs unimpaired — the retransmit schedule absorbs
// the pressure without any exchange expiring. Checked against the sim
// artifact (which the socket determinism test already pins equal to the
// unimpaired socket artifact) at CS_THREADS=8: the mixed plan at two
// seeds, and a plan that drops half of all first sends. The CS_THREADS 1
// and 8 proof runs on the simulated wire, in fault_determinism_test.
//
// Unsurvivable plans (corrupt > 0): the run must degrade gracefully —
// complete without hangs, with every failed exchange accounted to
// exactly one cause.
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

/// Half of all first sends lost. Regression: a client-wide retry budget
/// once drained under this plan and refused retransmits the plan
/// promised would get through, so the artifact differed.
constexpr const char* kHalfDroppedWire = "drop=0.5";

netio::LoopbackDns::Options survivable_netio() {
  netio::LoopbackDns::Options options;
  options.rto_us = 5'000;
  // A loaded machine can stall a server worker thread for tens of
  // milliseconds; ten doubling attempts outlast any such stall, so no
  // answered exchange expires and the case can share the machine.
  options.max_attempts = 10;
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
  struct Input {
    const char* plan;
    std::uint64_t seed;
  };
  for (const auto& [plan, seed] :
       {Input{kSurvivableWire, 2013}, Input{kSurvivableWire, 5077},
        Input{kHalfDroppedWire, 2013}}) {
    std::vector<std::uint8_t> clean;
    {
      fault::ScopedPlan unimpaired{fault::Spec{}};
      clean = dataset_bytes(small_config(seed, netio::TransportMode::kSim),
                            threads);
    }
    ASSERT_FALSE(clean.empty());

    fault::ScopedPlan wire{plan};
    const auto before = obs::MetricsRegistry::instance().snapshot();
    auto config = small_config(seed, netio::TransportMode::kSocket);
    config.netio = survivable_netio();
    const auto chaotic = dataset_bytes(std::move(config), threads);
    const auto after = obs::MetricsRegistry::instance().snapshot();

    EXPECT_EQ(clean, chaotic)
        << "survivable wire plan " << plan << " changed the artifact at seed "
        << seed << ", CS_THREADS=" << threads;

    // The wire really was hostile...
    const auto impairments = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    EXPECT_GT(impairments("fault.wire.drop") + impairments("fault.wire.dup") +
                  impairments("fault.wire.reorder") +
                  impairments("fault.wire.delay"),
              0u)
        << "plan injected nothing; the identity proves nothing";
    // ...yet no exchange ever failed: the first-attempt rule turns every
    // impairment into a retransmit, never a failure.
    EXPECT_EQ(impairments("netio.client.expirations"), 0u);
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
/// die in flight (bad frame, bad wire ID, undecodable DNS bytes), and the
/// retransmit schedule must carry the run to completion.
constexpr const char* kCorruptingWire = "corrupt=1";

/// Counter deltas across one tiny socket study on the corrupting wire,
/// with a test-sized schedule (5, 10, 20 ms at the default three attempts).
class CorruptedRun {
 public:
  explicit CorruptedRun(unsigned max_attempts) {
    fault::ScopedPlan wire{kCorruptingWire};
    auto config = tiny_config(911);
    config.netio.emplace();
    config.netio->rto_us = 5'000;
    config.netio->max_attempts = max_attempts;

    before_ = obs::MetricsRegistry::instance().snapshot();
    bytes_ = dataset_bytes(std::move(config), 8);
    after_ = obs::MetricsRegistry::instance().snapshot();
  }

  std::uint64_t delta(const char* name) const {
    return after_.counter(name) - before_.counter(name);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
  std::vector<std::uint8_t> bytes_;
};

TEST(ChaosDegradation, CorruptingWireExpiresExchangesAndStillCompletes) {
  const CorruptedRun run{3};

  EXPECT_FALSE(run.bytes().empty())
      << "degraded run still produces an artifact";
  EXPECT_GT(run.delta("fault.wire.corrupt"), 0u);
  // Every settled exchange has exactly one cause; the sum of causes is
  // the number of exchanges started. This is the exact-accounting
  // invariant render_data_quality reports against.
  EXPECT_EQ(run.delta("netio.client.exchanges"),
            run.delta("netio.client.responses") +
                run.delta("netio.client.unreachable") +
                run.delta("netio.client.expirations"));
  EXPECT_GT(run.delta("netio.client.expirations"), 0u);
}

TEST(ChaosDegradation, CorruptingWireSpendsEveryAttemptAndStillCompletes) {
  // Nothing rations retransmits: however many exchanges the wire kills,
  // each one sends all of its attempts before it expires.
  constexpr unsigned kAttempts = 2;
  const CorruptedRun run{kAttempts};

  EXPECT_FALSE(run.bytes().empty())
      << "degraded run still produces an artifact";
  const auto expirations = run.delta("netio.client.expirations");
  EXPECT_GT(expirations, 0u);
  EXPECT_GE(run.delta("netio.client.retransmits"),
            expirations * (kAttempts - 1));
}

}  // namespace
}  // namespace cs::core
