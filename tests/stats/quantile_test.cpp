#include "bgpcmp/stats/quantile.h"

#include <gtest/gtest.h>

#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::stats {
namespace {

TEST(Quantile, SingleElement) {
  const double v[] = {7.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 7.0);
}

TEST(Quantile, MedianOfOddAndEven) {
  const double odd[] = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const double even[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);  // linear interpolation
}

TEST(Quantile, ExtremesAreMinMax) {
  const double v[] = {5.0, -2.0, 9.0, 0.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, InterpolatesType7) {
  // numpy.percentile([10,20,30,40], 25) == 17.5 under the default rule.
  const double v[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 17.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 32.5);
}

TEST(Quantile, InputOrderIrrelevant) {
  const double a[] = {1.0, 9.0, 5.0, 3.0, 7.0};
  const double b[] = {9.0, 7.0, 5.0, 3.0, 1.0};
  for (const double q : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(quantile(a, q), quantile(b, q));
  }
}

TEST(Quantile, MonotoneInQ) {
  Rng rng{77};
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(rng.normal(0, 10));
  double prev = quantile(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(v, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(WeightedQuantile, EqualWeightsMatchMedianLocation) {
  const Weighted obs[] = {{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.5), 2.0);
}

TEST(WeightedQuantile, HeavyWeightDominates) {
  const Weighted obs[] = {{1.0, 1.0}, {2.0, 1.0}, {100.0, 98.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.5), 100.0);
}

TEST(WeightedQuantile, ZeroWeightObservationsIgnored) {
  const Weighted obs[] = {{-50.0, 0.0}, {1.0, 1.0}, {2.0, 1.0}, {999.0, 0.0}};
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.0), -50.0);  // technically first value
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 1.0), 2.0);
}

TEST(WeightedQuantile, MatchesUnweightedWhenUniform) {
  Rng rng{88};
  std::vector<double> values;
  std::vector<Weighted> obs;
  for (int i = 0; i < 101; ++i) {
    const double v = rng.uniform(0, 100);
    values.push_back(v);
    obs.push_back(Weighted{v, 2.5});
  }
  // Weighted quantile uses a step function (no interpolation); agreement
  // within one order statistic's gap is the invariant.
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(weighted_quantile(obs, q), quantile(values, q), 3.0);
  }
}

TEST(WeightedQuantile, CumulativeWeightBoundary) {
  const Weighted obs[] = {{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}, {4.0, 1.0}};
  // q=0.5 -> target weight 2.0, reached exactly at value 2.
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(weighted_quantile(obs, 0.51), 3.0);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, WeightedQuantileWithinDataRange) {
  Rng rng{99};
  std::vector<Weighted> obs;
  for (int i = 0; i < 50; ++i) {
    obs.push_back(Weighted{rng.normal(10, 3), rng.uniform(0.1, 2.0)});
  }
  const double v = weighted_quantile(obs, GetParam());
  double lo = obs[0].value;
  double hi = obs[0].value;
  for (const auto& o : obs) {
    lo = std::min(lo, o.value);
    hi = std::max(hi, o.value);
  }
  EXPECT_GE(v, lo);
  EXPECT_LE(v, hi);
}

INSTANTIATE_TEST_SUITE_P(Qs, QuantileSweep,
                         ::testing::Values(0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0));

}  // namespace
}  // namespace bgpcmp::stats
