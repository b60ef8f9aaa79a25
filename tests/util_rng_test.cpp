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
  const Zipf zipf{100, 1.0};
  for (int i = 0; i < 10000; ++i) {
    const auto v = zipf(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(Rng, ZipfRankOneIsMostFrequent) {
  Rng rng{37};
  const Zipf zipf{1000, 1.1};
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
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
  const Zipf zipf{1, 1.2};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 1u);
}

/// The reference Zipf sampler: rejection-inversion with both bounds
/// computed with pow on every call.
std::uint64_t per_call_zipf(Rng& rng, std::uint64_t n, double s) {
  if (n == 1) return 1;
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(nd + 0.5);
  for (;;) {
    const double u = hx0 + rng.uniform01() * (hn - hx0);
    const double x = h_inv(u);
    const double k = std::floor(x + 0.5);
    if (k < 1.0 || k > nd) continue;
    if (u >= h(k + 0.5) - std::pow(k, -s)) continue;
    return static_cast<std::uint64_t>(k);
  }
}

// A kept Zipf draws the ranks the per-call sampler draws, consuming the
// same uniforms, so no stream that switches to it moves.
TEST(Zipf, DrawsMatchThePerCallSampler) {
  struct Shape {
    std::uint64_t n;
    double s;
  };
  for (const Shape shape : {Shape{1, 1.2}, Shape{2, 0.9}, Shape{100, 1.0},
                            Shape{1000, 1.1}, Shape{3000, 1.05},
                            Shape{1'000'000, 1.5}}) {
    const Zipf zipf{shape.n, shape.s};
    Rng kept{53}, reference{53};
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(zipf(kept), per_call_zipf(reference, shape.n, shape.s))
          << "n=" << shape.n << " s=" << shape.s << " draw " << i;
    }
    EXPECT_EQ(kept(), reference()) << "n=" << shape.n << " s=" << shape.s;
  }
  EXPECT_THROW(Zipf(0, 1.0), std::invalid_argument);
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
