#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

namespace cs::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng{7};
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng{123};
  std::array<int, 8> counts{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 8 * 0.9);
    EXPECT_LT(c, kDraws / 8 * 1.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntInvalidRangeThrows) {
  Rng rng{9};
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{17};
  int hits = 0;
  constexpr int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i)
    if (rng.chance(0.3)) ++hits;
  const double p = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{19};
  double sum = 0.0, sumsq = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng{23};
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kDraws, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Rng rng{23};
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ParetoNeverBelowScale) {
  Rng rng{29};
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 1.2), 3.0);
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng rng{29};
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng{31};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.zipf(100, 1.0);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(Rng, ZipfRankOneIsMostFrequent) {
  Rng rng{37};
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[rng.zipf(1000, 1.1)];
  int max_count = 0;
  std::uint64_t max_rank = 0;
  for (const auto& [rank, count] : counts)
    if (count > max_count) {
      max_count = count;
      max_rank = rank;
    }
  EXPECT_EQ(max_rank, 1u);
  // Zipf(1.1): rank 1 should beat rank 10 by roughly 10^1.1.
  EXPECT_GT(counts[1], counts[10] * 5);
}

TEST(Rng, ZipfSingletonAlwaysOne) {
  Rng rng{41};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.zipf(1, 1.2), 1u);
}

TEST(Rng, WeightedPickHonorsWeights) {
  Rng rng{43};
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.weighted_pick(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedPickRejectsDegenerateInput) {
  Rng rng{47};
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_pick(zeros), std::invalid_argument);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.weighted_pick(negative), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{53};
  Rng child = parent.fork();
  // The child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(StableHash, DeterministicAndSensitive) {
  EXPECT_EQ(stable_hash("example.com"), stable_hash("example.com"));
  EXPECT_NE(stable_hash("example.com"), stable_hash("example.org"));
  EXPECT_NE(stable_hash(""), stable_hash("a"));
}

// Both bases on "foobar": the standard one gives the published FNV-1a
// test vector; the short one gives what snapshot checksums and fault keys
// have always hashed to.
TEST(StableHash, Fnv1aBasesArePinned) {
  constexpr std::uint8_t kFoobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(fnv1a(kFoobar, kFnv1aBasis), 0x85944171f73967e8ULL);
  EXPECT_EQ(stable_hash("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(kFnv1aShortBasis, 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv1a(kFoobar, kFnv1aShortBasis), 0x88fad7c0a8ff07f2ULL);
  // Spans chain through the basis.
  const std::span<const std::uint8_t> all{kFoobar};
  EXPECT_EQ(fnv1a(all.subspan(3), fnv1a(all.first(3), kFnv1aShortBasis)),
            0x88fad7c0a8ff07f2ULL);
}

}  // namespace
}  // namespace cs::util
