// The live-socket backend's headline promise: a study's dataset artifact
// is byte-identical whether resolver traffic rode the in-process
// simulated network or real localhost UDP sockets. Answer content is a
// pure function of the world seed; the transport only changes timing.
// Exercised at CS_THREADS 1 and 8 so the socket path also holds under
// the exec pool's fan-out (and under TSan in CI), and under an
// exchange-level fault plan, where the socket client must expire exactly
// the exchanges the sim loses.
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
  // A compact wordlist keeps the brute-force phase small enough for the
  // sanitizer jobs while still fanning out real query load.
  config.dataset.wordlist = {"www", "mail", "api", "cdn", "dev", "static"};
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = true;
  config.transport = mode;
  return config;
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

std::vector<std::uint8_t> dataset_bytes(std::uint64_t seed,
                                        netio::TransportMode mode,
                                        unsigned threads) {
  return dataset_bytes(small_config(seed, mode), threads);
}

class SocketDeterminism : public testing::TestWithParam<unsigned> {};

TEST_P(SocketDeterminism, DatasetArtifactMatchesSimByteForByte) {
  const unsigned threads = GetParam();
  const std::uint64_t seed = 2013;
  const auto sim =
      dataset_bytes(seed, netio::TransportMode::kSim, threads);
  const auto socket =
      dataset_bytes(seed, netio::TransportMode::kSocket, threads);
  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim, socket)
      << "socket transport altered the dataset artifact at CS_THREADS="
      << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, SocketDeterminism,
                         testing::Values(1u, 8u));

TEST(SocketDeterminism, ExchangeTimeoutsMatchSimByteForByte) {
  // timeout=0.05 silences 5% of exchanges at the server on every attempt.
  // The sim fails them at once; the socket client must expire exactly
  // those after its retransmit schedule, and answer every other one. Each
  // attempt waits long enough for a reply from a server thread that a
  // shared host deschedules for a while.
  fault::ScopedPlan plan{"timeout=0.05"};
  const std::uint64_t seed = 2013;
  const auto sim = dataset_bytes(seed, netio::TransportMode::kSim, 8);
  auto config = small_config(seed, netio::TransportMode::kSocket);
  config.netio.emplace();
  config.netio->rto_us = 20'000;  // each lost exchange waits 20 + 40 + 80 ms
  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto socket = dataset_bytes(std::move(config), 8);
  const auto after = obs::MetricsRegistry::instance().snapshot();
  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim, socket) << "timeout plan altered the socket artifact";
  EXPECT_GT(after.counter("fault.dns.timeout"),
            before.counter("fault.dns.timeout"))
      << "plan injected nothing; the identity proves nothing";
}

TEST(SocketDeterminism, SocketRunsAreReproducible) {
  // Same seed, same artifact, run to run — over real sockets.
  const auto first = dataset_bytes(777, netio::TransportMode::kSocket, 4);
  const auto second = dataset_bytes(777, netio::TransportMode::kSocket, 4);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace cs::core
