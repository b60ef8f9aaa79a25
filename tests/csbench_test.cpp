#include "csbench/csbench.h"

#include <gtest/gtest.h>

namespace cs::csbench {
namespace {

// A RunReport-shaped sidecar, the same JSON the bench binaries emit.
constexpr const char* kSidecar = R"({
  "bench": "Table 1: cloud share of capture traffic",
  "wall_ms": 160.441,
  "threads": 1,
  "resources": {"user_cpu_ms": 92.6, "system_cpu_ms": 57.9,
                "peak_rss_kb": 125236, "current_rss_kb": 121184},
  "pool": {"tasks": 0, "steals": 0, "max_queue_depth": 0},
  "snap": {"stages_built": 5, "stages_resumed": 0},
  "fault": {"total": 0},
  "stages": [
    {"name": "study.world", "count": 1, "total_ms": 5.858, "self_ms": 0.007},
    {"name": "study.capture", "count": 1, "total_ms": 153.1, "self_ms": 3.2}
  ],
  "percentiles": {},
  "counters": {"pcap.flow.flows": 8511}
})";

TEST(AggregateTest, MinMedianIqrOfKnownSamples) {
  const auto stats = aggregate({10.0, 30.0, 20.0, 40.0, 50.0});
  EXPECT_EQ(stats.reps, 5u);
  EXPECT_DOUBLE_EQ(stats.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.median, 30.0);
  EXPECT_DOUBLE_EQ(stats.iqr, 20.0);  // p75=40, p25=20
}

TEST(AggregateTest, EvenCountInterpolates) {
  const auto stats = aggregate({10.0, 20.0});
  EXPECT_DOUBLE_EQ(stats.median, 15.0);
  EXPECT_DOUBLE_EQ(stats.iqr, 5.0);  // p75=17.5, p25=12.5
}

TEST(AggregateTest, EmptyIsZero) {
  const auto stats = aggregate({});
  EXPECT_EQ(stats.reps, 0u);
  EXPECT_DOUBLE_EQ(stats.median, 0.0);
}

TEST(SidecarTest, ParsesWallAndStages) {
  const auto sample = parse_sidecar(kSidecar);
  ASSERT_TRUE(sample.has_value());
  EXPECT_DOUBLE_EQ(sample->wall_ms, 160.441);
  ASSERT_EQ(sample->stage_total_ms.size(), 2u);
  EXPECT_EQ(sample->stage_total_ms[0].first, "study.world");
  EXPECT_DOUBLE_EQ(sample->stage_total_ms[0].second, 5.858);
  EXPECT_EQ(sample->stage_total_ms[1].first, "study.capture");
}

TEST(SidecarTest, RejectsNonSidecars) {
  EXPECT_FALSE(parse_sidecar("not json").has_value());
  EXPECT_FALSE(parse_sidecar("{}").has_value());  // no wall_ms
  EXPECT_FALSE(parse_sidecar(R"({"wall_ms": "fast"})").has_value());
}

TEST(AggregateBenchTest, PerStageStatsAcrossReps) {
  Sample a{100.0, {{"world", 10.0}, {"capture", 80.0}}};
  Sample b{120.0, {{"world", 14.0}, {"capture", 90.0}}};
  Sample c{110.0, {{"world", 12.0}}};  // capture missing from one rep
  const auto bench = aggregate_bench("bench_x", {a, b, c});
  EXPECT_EQ(bench.name, "bench_x");
  EXPECT_EQ(bench.wall.reps, 3u);
  EXPECT_DOUBLE_EQ(bench.wall.median, 110.0);
  ASSERT_EQ(bench.stages.size(), 2u);
  EXPECT_EQ(bench.stages[0].name, "world");
  EXPECT_DOUBLE_EQ(bench.stages[0].stats.median, 12.0);
  EXPECT_EQ(bench.stages[1].name, "capture");
  EXPECT_EQ(bench.stages[1].stats.reps, 2u);
  EXPECT_DOUBLE_EQ(bench.stages[1].stats.median, 85.0);
}

Manifest fixture_manifest() {
  Manifest manifest;
  manifest.tag = "smoke";
  manifest.machine = {4, 120, 2013, "gcc 12.2.0"};
  manifest.reps = 3;
  Sample a{100.0, {{"study.world", 10.0}}};
  Sample b{104.0, {{"study.world", 11.0}}};
  Sample c{102.0, {{"study.world", 10.5}}};
  manifest.benches.push_back(
      aggregate_bench("bench_table1_cloud_share", {a, b, c}));
  return manifest;
}

TEST(ManifestTest, RenderParseRoundTrip) {
  const Manifest manifest = fixture_manifest();
  const auto parsed = parse_manifest(render_manifest(manifest));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tag, "smoke");
  EXPECT_EQ(parsed->machine.threads, 4u);
  EXPECT_EQ(parsed->machine.domains, 120u);
  EXPECT_EQ(parsed->machine.seed, 2013u);
  EXPECT_EQ(parsed->machine.compiler, "gcc 12.2.0");
  EXPECT_EQ(parsed->reps, 3u);
  ASSERT_EQ(parsed->benches.size(), 1u);
  const auto& bench = parsed->benches[0];
  EXPECT_EQ(bench.name, "bench_table1_cloud_share");
  EXPECT_EQ(bench.wall.reps, 3u);
  EXPECT_DOUBLE_EQ(bench.wall.median, 102.0);
  EXPECT_DOUBLE_EQ(bench.wall.min, 100.0);
  ASSERT_EQ(bench.stages.size(), 1u);
  EXPECT_EQ(bench.stages[0].name, "study.world");
  EXPECT_DOUBLE_EQ(bench.stages[0].stats.median, 10.5);
}

TEST(ManifestTest, RejectsNonManifests) {
  EXPECT_FALSE(parse_manifest("[]").has_value());
  EXPECT_FALSE(parse_manifest(R"({"tag": "x"})").has_value());  // no benches
  EXPECT_FALSE(
      parse_manifest(R"({"benches": [{"name": "b"}]})").has_value());
}

TEST(CheckTest, PassesOnItself) {
  const Manifest manifest = fixture_manifest();
  const auto& bench = manifest.benches[0];
  const auto outcome = check_bench(bench, bench.wall.median, CheckOptions{});
  EXPECT_FALSE(outcome.regressed);
  EXPECT_DOUBLE_EQ(outcome.baseline_ms, outcome.fresh_ms);
}

TEST(CheckTest, FiresOnDoctoredBaseline) {
  // Doctor the baseline median down 50%: the unchanged "fresh" time is
  // now a 2x regression, past the 50% floor.
  Manifest manifest = fixture_manifest();
  BenchStats doctored = manifest.benches[0];
  const double honest_median = doctored.wall.median;
  doctored.wall.median *= 0.5;
  doctored.wall.iqr *= 0.5;
  const auto outcome = check_bench(doctored, honest_median, CheckOptions{});
  EXPECT_TRUE(outcome.regressed);
  EXPECT_GT(outcome.fresh_ms, outcome.limit_ms);
}

TEST(CheckTest, IqrBandWinsOverFloorOnNoisyBenches) {
  BenchStats noisy;
  noisy.name = "bench_noisy";
  noisy.wall = {5, 90.0, 100.0, 40.0};  // IQR band: 3*40/100 = 120%
  CheckOptions options;
  options.floor_pct = 50.0;
  // +100% is within the 120% IQR band even though it exceeds the floor.
  EXPECT_FALSE(check_bench(noisy, 200.0, options).regressed);
  EXPECT_TRUE(check_bench(noisy, 230.0, options).regressed);
}

TEST(CheckTest, ZeroBaselineNeverRegresses) {
  BenchStats empty;
  empty.name = "bench_empty";
  EXPECT_FALSE(check_bench(empty, 100.0, CheckOptions{}).regressed);
}

TEST(FilterTest, SubstringAnyMatch) {
  const auto filters = split_filters("table1,fig5,");
  ASSERT_EQ(filters.size(), 2u);
  EXPECT_TRUE(matches_filter("bench_table1_cloud_share", filters));
  EXPECT_TRUE(matches_filter("bench_fig5_dns_cdf", filters));
  EXPECT_FALSE(matches_filter("bench_table9_regions", filters));
  EXPECT_TRUE(matches_filter("anything", {}));  // empty filter = all
}

}  // namespace
}  // namespace cs::csbench
