// Live-socket transport throughput: sustained queries/sec and exchange
// latency percentiles for the netio backend (DnsSocketServer behind
// SO_REUSEPORT listeners, SocketDnsTransport with each client thread
// waiting on its own socket over real localhost UDP). The world is the
// usual synthetic universe; every exchange is a full kernel round trip.
//
// Extra knobs (on top of bench_common's):
//   CS_QPS_CLIENTS - concurrent client threads (default 8)
//   CS_QPS_QUERIES - total exchanges to drive (default 200000)
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dns/message.h"
#include "netio/loopback.h"
#include "synth/world.h"

int main() {
  using namespace cs;
  bench::print_header("Socket transport: sustained QPS");

  synth::WorldConfig world_config;
  world_config.domain_count = bench::env_size("CS_DOMAINS", 300);
  world_config.seed = bench::env_size("CS_SEED", 2013);
  synth::World world{world_config};

  netio::LoopbackDns loopback{world.network(),
                              netio::LoopbackDns::options_from_env()};
  if (!loopback.start()) {
    std::cout << "socket backend unavailable; nothing to measure\n";
    return 1;
  }

  // One wire query per domain, all aimed at the root: every exchange is a
  // real referral lookup, and the set is large enough to defeat any
  // would-be caching below the transport.
  const net::Ipv4 client{192, 0, 2, 1};
  const net::Ipv4 root = world.root_servers().front();
  std::vector<std::vector<std::uint8_t>> queries;
  queries.reserve(world.domains().size());
  for (const auto& domain : world.domains()) {
    const auto www = domain.name.child("www");
    if (!www) continue;
    queries.push_back(
        dns::Message::query(static_cast<std::uint16_t>(queries.size()), *www,
                            dns::RrType::kA)
            .encode());
  }

  const std::size_t clients = bench::env_size("CS_QPS_CLIENTS", 8);
  const std::size_t total = bench::env_size("CS_QPS_QUERIES", 200'000);
  const std::size_t per_client = total / clients;

  // Warm the path (socket buffers, metrics registration, branch caches).
  for (std::size_t i = 0; i < 64; ++i)
    loopback.transport().exchange(client, root, queries[i % queries.size()]);

  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::uint64_t ok = 0, bad = 0;
        for (std::size_t i = 0; i < per_client; ++i) {
          const auto& query = queries[(c * per_client + i) % queries.size()];
          if (loopback.transport().exchange(client, root, query))
            ++ok;
          else
            ++bad;
        }
        answered.fetch_add(ok);
        failed.fetch_add(bad);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto snapshot = obs::MetricsRegistry::instance().snapshot();
  double p50 = 0, p99 = 0;
  for (const auto& h : snapshot.histograms)
    if (h.name == "netio.client.exchange_us") {
      p50 = h.quantile(0.50);
      p99 = h.quantile(0.99);
    }

  const double qps = wall_s > 0 ? answered.load() / wall_s : 0;
  std::cout << "clients:            " << clients << "\n"
            << "exchanges answered: " << answered.load() << "\n"
            << "exchanges failed:   " << failed.load() << "\n"
            << "wall seconds:       " << wall_s << "\n"
            << "sustained QPS:      " << static_cast<std::uint64_t>(qps)
            << "\n"
            << "exchange p50 (us):  " << p50 << "\n"
            << "exchange p99 (us):  " << p99 << "\n"
            << "retransmits:        "
            << snapshot.counter("netio.client.retransmits") << "\n"
            << "expirations:        "
            << snapshot.counter("netio.client.expirations") << "\n";
  // The CS_BENCH_JSON sidecar (obs::RunReport) carries the same histogram
  // with full percentile detail for the perf trajectory.
  return 0;
}
