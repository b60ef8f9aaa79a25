#include "util/stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace cs::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd = {3, 1, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(Stats, QuantileClampsOutOfRange) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 3.0);
}

// Regression: NaN samples used to reach std::sort, whose strict-weak-
// ordering contract NaN violates (undefined behaviour — in practice,
// garbage percentiles). Every helper now computes over the non-NaN
// subset; none may ever return NaN for NaN-laced input.
TEST(Stats, NanLacedSamplesAreIgnored) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {nan, 10, nan, 20, 30, nan, 40, nan};
  EXPECT_DOUBLE_EQ(mean(xs), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
}

TEST(Stats, AllNanBehavesLikeEmpty) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {nan, nan, nan};
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(median(xs), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.95), 0.0);
}

TEST(Stats, InfinitiesAreKept) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {1, 2, inf, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), inf);
}

}  // namespace
}  // namespace cs::util
