#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace cs::obs {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndIncrements) {
  MetricsRegistry registry;
  auto& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  auto& a = registry.counter("shared");
  auto& b = registry.counter("shared");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // Gauges and histograms live in separate namespaces from counters.
  auto& g = registry.gauge("shared");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  EXPECT_EQ(a.value(), 1u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  auto& g = registry.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(MetricsTest, HistogramBucketSemantics) {
  MetricsRegistry registry;
  auto& h = registry.histogram("test.hist", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1       -> bucket 0
  h.observe(1.0);    // == bound   -> bucket 0 (upper bounds are inclusive)
  h.observe(5.0);    // <= 10      -> bucket 1
  h.observe(50.0);   // <= 100     -> bucket 2
  h.observe(1000.0);  // > last    -> overflow bucket
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 50.0 + 1000.0);
}

TEST(MetricsTest, HistogramRejectsEmptyBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", {}), std::invalid_argument);
}

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  auto& c = registry.counter("concurrent.counter");
  auto& h = registry.histogram("concurrent.hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kIncrements);
}

// More threads than stripes, so some share a cell: the sum is still exact.
TEST(MetricsTest, StripedCounterSumsExactlyUnderThreads) {
  static_assert(kCounterStripes < 16);
  MetricsRegistry registry;
  auto& c = registry.counter("striped.counter");
  constexpr int kThreads = 16;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 1600000u);
  EXPECT_EQ(registry.snapshot().counter("striped.counter"), 1600000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(registry.snapshot().counter("striped.counter"), 0u);
}

TEST(MetricsTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i)
        registry.counter("race." + std::to_string(i)).inc();
    });
  for (auto& t : threads) t.join();
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 200u);
  for (const auto& c : snap.counters) EXPECT_EQ(c.value, 8u);
}

TEST(MetricsTest, SnapshotIsIsolatedFromLaterWrites) {
  MetricsRegistry registry;
  auto& c = registry.counter("snap.counter");
  auto& h = registry.histogram("snap.hist", {10.0});
  c.inc(5);
  h.observe(3.0);
  const auto snap = registry.snapshot();
  c.inc(100);
  h.observe(3.0);
  EXPECT_EQ(snap.counter("snap.counter"), 5u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(c.value(), 105u);
}

TEST(MetricsTest, ResetValuesKeepsHandlesValid) {
  MetricsRegistry registry;
  auto& c = registry.counter("reset.counter");
  auto& h = registry.histogram("reset.hist", {1.0});
  c.inc(9);
  h.observe(0.5);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the cached reference still points at the live instrument
  EXPECT_EQ(registry.snapshot().counter("reset.counter"), 1u);
}

TEST(MetricsTest, DetailedMetricsGateTogglesAndSticks) {
  set_detailed_metrics(false);
  EXPECT_FALSE(detailed_metrics());
  set_detailed_metrics(true);
  EXPECT_TRUE(detailed_metrics());
  set_detailed_metrics(false);
  EXPECT_FALSE(detailed_metrics());
}

TEST(MetricsTest, GlobalRegistryShorthand) {
  counter("global.test").inc(3);
  EXPECT_EQ(MetricsRegistry::instance().snapshot().counter("global.test"),
            3u);
}

}  // namespace
}  // namespace cs::obs
