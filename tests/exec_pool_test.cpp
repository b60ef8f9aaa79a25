// The exec engine's mechanics: pool lifecycle, fork-join semantics,
// strict CS_THREADS parsing, RNG sharding, and the trace-lane naming the
// pool feeds the observability layer.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/config.h"
#include "exec/parallel.h"
#include "exec/sharded_rng.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cs::exec {
namespace {

TEST(ParseThreads, AcceptsPlainIntegers) {
  EXPECT_EQ(parse_threads("1"), 1u);
  EXPECT_EQ(parse_threads("8"), 8u);
  EXPECT_EQ(parse_threads("32"), 32u);
}

TEST(ParseThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(parse_threads("0"), hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParseThreads, RejectsMalformedValues) {
  EXPECT_EQ(parse_threads("4x"), std::nullopt);
  EXPECT_EQ(parse_threads("x4"), std::nullopt);
  EXPECT_EQ(parse_threads(""), std::nullopt);
  EXPECT_EQ(parse_threads(" 4"), std::nullopt);
  EXPECT_EQ(parse_threads("4 "), std::nullopt);
  EXPECT_EQ(parse_threads("-1"), std::nullopt);
  EXPECT_EQ(parse_threads("+4"), std::nullopt);
  EXPECT_EQ(parse_threads("4.0"), std::nullopt);
  EXPECT_EQ(parse_threads("9999999999"), std::nullopt);  // > 9 digits
}

TEST(ScopedThreadsTest, OverridesAndRestores) {
  const unsigned before = thread_count();
  {
    ScopedThreads guard{3};
    EXPECT_EQ(thread_count(), 3u);
    EXPECT_EQ(ThreadPool::global().size(), 3u);
  }
  EXPECT_EQ(thread_count(), before);
}

TEST(ThreadPoolTest, StartupRunsTasksAndShutdownDrains) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{4};
    EXPECT_EQ(pool.size(), 4u);
    EXPECT_EQ(pool.worker_count(), 4u);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor joins after every task ran
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SequentialModeRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.worker_count(), 0u);
  bool ran = false;
  pool.submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // ran before submit returned
}

TEST(ThreadPoolTest, ARegionOpenedInASubmittedTaskRunsInline) {
  // A task handed straight to the pool runs on a worker, and a region it
  // opens runs inline there: the submitted task is the only pool task.
  ScopedThreads guard{4};
  const auto tasks = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(
        "exec.pool.tasks");
  };
  std::vector<std::atomic<int>> hits(64);
  const auto before = tasks();
  std::promise<void> done;
  ThreadPool::global().submit([&] {
    parallel_for(
        hits.size(),
        [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
        /*grain=*/1);
    done.set_value();
  });
  done.get_future().wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(tasks() - before, 1u);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ScopedThreads guard{4};
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroTasksIsANoOp) {
  ScopedThreads guard{4};
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  const auto empty = parallel_map(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(empty.empty());
}

TEST(ParallelFor, PropagatesTheFirstException) {
  ScopedThreads guard{4};
  EXPECT_THROW(parallel_for(500,
                            [](std::size_t i) {
                              if (i == 137)
                                throw std::runtime_error{"chunk failed"};
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ConcurrentFailuresRethrowExactlyOne) {
  // Regression: the region's error slot used to be read after the join
  // without the lock that guards the writes. With every chunk throwing
  // concurrently, exactly one exception must surface each round.
  ScopedThreads threads{4};
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> started{0};
    try {
      parallel_for(
          64,
          [&](std::size_t i) {
            started.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error("chunk " + std::to_string(i));
          },
          /*grain=*/1);
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string{error.what()}.find("chunk"), std::string::npos);
    }
    EXPECT_GE(started.load(std::memory_order_relaxed), 1);
  }
}

TEST(ParallelFor, NestedRegionsDoNotDeadlock) {
  ScopedThreads guard{4};
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, RegionsNestedInTheCallersChunksRunInline) {
  // The caller drains the outer region's chunks as well. A region nested
  // in one of them runs inline, as it does on a worker, so the only pool
  // tasks are the outer region's runners: min(workers, chunks - 1).
  ScopedThreads guard{4};
  const auto tasks = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(
        "exec.pool.tasks");
  };
  const unsigned workers = ThreadPool::global().worker_count();
  ASSERT_EQ(workers, 4u);
  constexpr std::size_t kOuter = 64;
  const auto before = tasks();
  std::atomic<int> total{0};
  parallel_for(
      kOuter,
      [&](std::size_t) {
        parallel_for(8, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      },
      /*grain=*/1);
  EXPECT_EQ(total.load(), 8 * static_cast<int>(kOuter));
  EXPECT_EQ(tasks() - before, workers);
}

TEST(ParallelMap, ResultsArriveInIndexOrder) {
  ScopedThreads guard{4};
  const auto squares =
      parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelMap, TwoRegionsAtOnceShareThePool) {
  // Two top-level regions from two plain threads put their runners on the
  // one queue at the same time; each must still get exactly its own
  // results.
  ScopedThreads guard{4};
  ThreadPool::global();  // built here, so no region thread names "main"
  const auto squares = [] {
    return parallel_map(
        64, [](std::size_t i) { return i * i; }, /*grain=*/1);
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<std::size_t> a;
    std::vector<std::size_t> b;
    std::thread first{[&] { a = squares(); }};
    std::thread second{[&] { b = squares(); }};
    first.join();
    second.join();
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(b.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(a[i], i * i) << "round " << round;
      EXPECT_EQ(b[i], i * i) << "round " << round;
    }
  }
}

TEST(ShardedRngTest, StreamsAreDeterministicPerShard) {
  const ShardedRng a{2013};
  const ShardedRng b{2013};
  for (std::uint64_t shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(a.stream_seed(shard), b.stream_seed(shard));
    auto ra = a.stream(shard);
    auto rb = b.stream(shard);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(ra(), rb());
  }
}

TEST(ShardedRngTest, AdjacentShardsAndSeedsDiffer) {
  const ShardedRng rng{2013};
  EXPECT_NE(rng.stream_seed(0), rng.stream_seed(1));
  const ShardedRng other{2014};
  EXPECT_NE(rng.stream_seed(0), other.stream_seed(0));
}

TEST(TracerLanes, PoolWorkersNameTheirLanes) {
  ScopedThreads guard{3};
  // Force the workers to actually run something so their loops start.
  std::atomic<int> n{0};
  parallel_for(64, [&](std::size_t) {
    n.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 64);
  bool saw_main = false;
  bool saw_worker = false;
  for (const auto& [tid, name] : obs::Tracer::instance().thread_names()) {
    if (name == "main") saw_main = true;
    if (name.rfind("exec-worker-", 0) == 0) saw_worker = true;
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_worker);
}

}  // namespace
}  // namespace cs::exec
