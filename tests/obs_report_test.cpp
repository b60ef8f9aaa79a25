#include "obs/report.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace cs::obs {
namespace {

TEST(ResourceUsageTest, FieldsAreNonZeroAndMonotone) {
  // Burn a visible slice of CPU so user+system time cannot round to zero.
  volatile double sink = 0.0;
  const auto before = resource_usage();
  for (int i = 0; i < 20'000'000; ++i) sink = sink + 1.0 / (i + 1);
  // Touch fresh memory so the resident set has something to grow into.
  std::vector<char> block(8 << 20, 1);
  sink = sink + std::accumulate(block.begin(), block.end(), 0.0);
  const auto after = resource_usage();

  EXPECT_GT(after.peak_rss_kb, 0);
  EXPECT_GT(after.user_cpu_us + after.system_cpu_us, 0u);
  // Monotone: CPU time and peak RSS never decrease across a measurement.
  EXPECT_GE(after.user_cpu_us, before.user_cpu_us);
  EXPECT_GE(after.system_cpu_us, before.system_cpu_us);
  EXPECT_GE(after.peak_rss_kb, before.peak_rss_kb);
  EXPECT_GT(after.user_cpu_us + after.system_cpu_us,
            before.user_cpu_us + before.system_cpu_us);
}

TEST(HistogramQuantileTest, InterpolatesInsideKnownBuckets) {
  HistogramSnapshot h;
  h.bounds = {10.0, 20.0, 30.0};
  h.buckets = {5, 5, 5, 0};
  h.count = 15;
  // Rank 7.5 of 15 lands halfway into the (10,20] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  // Rank 3 of 15 is 3/5 into the first bucket, which starts at 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  // Clamped below/above.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 30.0);
}

TEST(HistogramQuantileTest, OverflowBucketReportsLastBound) {
  HistogramSnapshot h;
  h.bounds = {10.0, 20.0};
  h.buckets = {0, 0, 7};  // everything beyond the last bound
  h.count = 7;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20.0);
}

TEST(HistogramQuantileTest, EmptyAndMalformedAreZero) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  HistogramSnapshot mismatched;
  mismatched.bounds = {1.0};
  mismatched.buckets = {1};  // should be bounds+1 entries
  mismatched.count = 1;
  EXPECT_DOUBLE_EQ(mismatched.quantile(0.5), 0.0);
}

TEST(RunReportTest, JsonCarriesOneConsistentSnapshot) {
  counter("report.test.widgets").inc(41);
  counter("fault.test.synthetic").inc(3);
  histogram("report.test.latency_us", {10.0, 100.0}).observe(5.0);

  auto report = RunReport::capture("report fixture");
  report.threads = 4;
  const auto parsed = util::parse_json(report.to_json());
  ASSERT_TRUE(parsed.has_value());

  ASSERT_NE(parsed->find("bench"), nullptr);
  EXPECT_EQ(parsed->find("bench")->text, "report fixture");
  ASSERT_NE(parsed->find("wall_ms"), nullptr);
  EXPECT_GT(parsed->find("wall_ms")->number, 0.0);
  ASSERT_NE(parsed->find("threads"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->find("threads")->number, 4.0);
  ASSERT_NE(parsed->get("resources", "peak_rss_kb"), nullptr);
  EXPECT_GT(parsed->get("resources", "peak_rss_kb")->number, 0.0);
  ASSERT_NE(parsed->get("counters", "report.test.widgets"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->get("counters", "report.test.widgets")->number,
                   41.0);
  // The fault block strips the prefix and totals every injected event.
  ASSERT_NE(parsed->get("fault", "test.synthetic"), nullptr);
  ASSERT_NE(parsed->get("fault", "total"), nullptr);
  EXPECT_GE(parsed->get("fault", "total")->number, 3.0);
  // snap block always present, zero when nothing checkpointed.
  ASSERT_NE(parsed->get("snap", "stages_resumed"), nullptr);
  // Histogram percentiles ride along with their sample count.
  const auto* latency =
      parsed->get("percentiles", "report.test.latency_us");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(latency->find("count"), nullptr);
  EXPECT_GE(latency->find("count")->number, 1.0);
  ASSERT_NE(latency->find("p99"), nullptr);
  EXPECT_GT(latency->find("p99")->number, 0.0);
}

TEST(RunReportTest, WallClockCountsFromProcessStart) {
  // Let 5 ms pass before anything touches the Tracer. wall_ms must include
  // them even though, run alone, capture() is this process's first use of
  // the Tracer.
  const auto begin = steady_now_us();
  while (steady_now_us() - begin < 5'000) {
  }
  EXPECT_GE(RunReport::capture("process age").wall_ms, 5.0);
}

TEST(RunReportTest, CounterEventsRenderAsChromeCounterLanes) {
  auto& tracer = Tracer::instance();
  tracer.enable_collection();
  tracer.clear();
  tracer.record_counter("test.lane", 7.0);
  tracer.record_counter("test.lane", 9.5);
  const auto events = tracer.counter_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.lane");
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_DOUBLE_EQ(events[1].value, 9.5);

  const auto parsed = util::parse_json(tracer.chrome_json());
  ASSERT_TRUE(parsed.has_value());
  const auto* trace_events = parsed->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  int counter_lanes = 0;
  for (const auto& event : trace_events->items) {
    ASSERT_NE(event.find("ph"), nullptr);
    if (event.find("ph")->text_or("") != "C") continue;
    ++counter_lanes;
    ASSERT_NE(event.find("name"), nullptr);
    EXPECT_EQ(event.find("name")->text, "test.lane");
    ASSERT_NE(event.get("args", "value"), nullptr);
    EXPECT_TRUE(event.get("args", "value")->is_number());
  }
  EXPECT_EQ(counter_lanes, 2);
  tracer.clear();
  tracer.disable();
}

TEST(RunReportTest, SampleCounterLaneFeedsRssLane) {
  auto& tracer = Tracer::instance();
  tracer.enable_collection();
  tracer.clear();
  RunReport::sample_counter_lane();
  bool saw_rss = false;
  for (const auto& event : tracer.counter_events())
    if (event.name == "proc.rss_kb" && event.value > 0.0) saw_rss = true;
  EXPECT_TRUE(saw_rss);
  tracer.clear();
  tracer.disable();

  // Disabled tracer: sampling is a no-op, not an error.
  RunReport::sample_counter_lane();
  EXPECT_TRUE(tracer.counter_events().empty());
}

}  // namespace
}  // namespace cs::obs
