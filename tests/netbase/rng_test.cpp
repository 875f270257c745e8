#include "bgpcmp/netbase/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace bgpcmp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndLabelled) {
  const Rng root{7};
  Rng a1 = root.fork("alpha");
  Rng a2 = root.fork("alpha");
  Rng b = root.fork("beta");
  EXPECT_DOUBLE_EQ(a1.uniform(), a2.uniform());
  Rng a3 = root.fork("alpha");
  EXPECT_NE(a3.uniform(), b.uniform());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a{9};
  Rng b{9};
  (void)a.fork("child");
  (void)a.fork("other");
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{4};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    saw_lo |= v == 0;
    saw_hi |= v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyApproximatesP) {
  Rng rng{6};
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng{8};
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{10};
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleAndIsHeavyTailed) {
  Rng rng{11};
  double max_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.pareto(2.0, 1.5);
    EXPECT_GE(v, 2.0);
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(max_seen, 50.0);  // heavy tail produces large outliers
}

TEST(Rng, IndexStaysInRange) {
  Rng rng{12};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_EQ(rng.index(1), 0u);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{13};
  const double weights[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{14};
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

/// Distribution sanity across many seeds (property-style sweep).
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng{GetParam()};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1234u, 99999u, 0xdeadbeefu));

}  // namespace
}  // namespace bgpcmp
