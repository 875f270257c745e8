#include "bgpcmp/stats/cdf.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {
namespace {

WeightedCdf simple_cdf() { return WeightedCdf{{{1.0, 1.0}, {2.0, 2.0}, {3.0, 1.0}}}; }

/// The message of the CheckError constructing a CDF over `obs` throws.
std::string rejection(std::vector<Weighted> obs) {
  const ScopedCheckThrows guard;
  try {
    (void)WeightedCdf{std::move(obs)};
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(WeightedCdf, CountsAndWeights) {
  const auto cdf = simple_cdf();
  EXPECT_EQ(cdf.count(), 3u);
  EXPECT_FALSE(cdf.empty());
}

TEST(WeightedCdf, FractionAtMostSteps) {
  const auto cdf = simple_cdf();
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.5), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(99.0), 1.0);
}

TEST(WeightedCdf, CcdfComplementsCdf) {
  const auto cdf = simple_cdf();
  for (const double x : {0.0, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0}) {
    EXPECT_DOUBLE_EQ(cdf.fraction_above(x), 1.0 - cdf.fraction_at_most(x));
  }
}

TEST(WeightedCdf, QuantileInverts) {
  const auto cdf = simple_cdf();
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 3.0);
}

TEST(WeightedCdf, QuantileMatchesFreestandingWeightedQuantile) {
  // Golden contract for the binary-searched quantile: bit-identical to the
  // freestanding weighted_quantile (which re-sorts per call) for every q.
  // Figure outputs are fingerprinted, so "close" is not enough.
  Rng rng{77};
  std::vector<Weighted> obs;
  for (int i = 0; i < 2000; ++i) {
    // Duplicates and ties included: i % 97 collapses many equal values.
    const double value = rng.normal(40.0, 12.0) + static_cast<double>(i % 97);
    const double weight = rng.uniform(0.05, 3.0);
    obs.push_back(Weighted{value, weight});
  }
  const WeightedCdf cdf{obs};
  for (double q = 0.0; q <= 1.0; q += 0.001) {
    EXPECT_EQ(cdf.quantile(q), weighted_quantile(obs, q)) << "q=" << q;
  }
}

TEST(WeightedCdf, QuantileMatchesFreestandingOnTinyAndSkewedInputs) {
  // Degenerate shapes where an off-by-one in the cumulative-weight search
  // would show: single observation, all-equal values, one dominating weight.
  const std::vector<std::vector<Weighted>> cases = {
      {{5.0, 2.0}},
      {{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}},
      {{10.0, 1e-6}, {20.0, 1e6}, {30.0, 1e-6}},
      {{-3.0, 0.5}, {0.0, 0.0}, {7.0, 0.5}},  // zero-weight observation
  };
  for (const auto& obs : cases) {
    const WeightedCdf cdf{obs};
    for (const double q : {0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0}) {
      EXPECT_EQ(cdf.quantile(q), weighted_quantile(obs, q))
          << "n=" << obs.size() << " q=" << q;
    }
  }
}

TEST(WeightedCdf, SeriesHasRequestedShape) {
  const auto cdf = simple_cdf();
  const auto series = cdf.cdf_series(-1.0, 4.0, 11);
  ASSERT_EQ(series.size(), 11u);
  EXPECT_DOUBLE_EQ(series.front().x, -1.0);
  EXPECT_DOUBLE_EQ(series.back().x, 4.0);
  EXPECT_DOUBLE_EQ(series.front().y, 0.0);
  EXPECT_DOUBLE_EQ(series.back().y, 1.0);
}

TEST(WeightedCdf, SeriesIsMonotone) {
  Rng rng{5};
  std::vector<Weighted> obs;
  for (int i = 0; i < 500; ++i) obs.push_back({rng.normal(0, 5), rng.uniform(0.1, 2.0)});
  const WeightedCdf cdf{std::move(obs)};
  const auto series = cdf.cdf_series(-20, 20, 41);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].y, series[i - 1].y);
  }
}

TEST(WeightedCdf, CcdfSeriesMirrorsCdfSeries) {
  const auto cdf = simple_cdf();
  const auto c = cdf.cdf_series(0, 4, 9);
  const auto cc = cdf.ccdf_series(0, 4, 9);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_DOUBLE_EQ(cc[i].y, 1.0 - c[i].y);
  }
}

TEST(WeightedCdf, DuplicateValuesAggregateWeight) {
  const WeightedCdf cdf{{{2.0, 1.0}, {2.0, 3.0}, {5.0, 4.0}}};
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.0), 0.5);
}

// std::sort's < is not a strict weak order over NaN, so a NaN value would
// make the constructor's sort undefined behaviour: it is rejected first.
TEST(WeightedCdf, RejectsNaNValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string what = rejection({{1.0, 1.0}, {nan, 1.0}});
  EXPECT_NE(what.find("CDF values must not be NaN"), std::string::npos) << what;
}

TEST(WeightedCdf, RejectsNegativeWeight) {
  const std::string what = rejection({{1.0, 1.0}, {2.0, -0.5}});
  EXPECT_NE(what.find("CDF weights must be non-negative"), std::string::npos) << what;
}

TEST(WeightedCdf, RejectsNaNWeight) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string what = rejection({{1.0, nan}, {2.0, 1.0}});
  EXPECT_NE(what.find("CDF weights must not be NaN"), std::string::npos) << what;
}

}  // namespace
}  // namespace bgpcmp::stats
