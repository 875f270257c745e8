#include "bgpcmp/core/study_pop.h"

#include <gtest/gtest.h>

#include <string>

#include "../testutil.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::core {
namespace {

PopStudyConfig quick_config() {
  PopStudyConfig cfg;
  cfg.days = 0.5;
  cfg.window_stride = 2;
  return cfg;
}

class PopStudyTest : public ::testing::Test {
 protected:
  static const PopStudyResult& result() {
    static const PopStudyResult r =
        run_pop_study(test::small_scenario(), quick_config());
    return r;
  }
};

TEST_F(PopStudyTest, WindowsFollowTheGrid) {
  // 0.5 days = 48 windows, stride 2 = 24 evaluated.
  EXPECT_EQ(result().windows.size(), 24u);
  for (std::size_t i = 1; i < result().windows.size(); ++i) {
    EXPECT_GT(result().windows[i].begin, result().windows[i - 1].begin);
  }
}

TEST_F(PopStudyTest, SeriesShapeIsConsistent) {
  EXPECT_FALSE(result().series.empty());
  for (const auto& s : result().series) {
    ASSERT_GE(s.routes.size(), 2u);
    ASSERT_LE(s.routes.size(), 3u);  // top_k default
    ASSERT_EQ(s.medians.size(), s.routes.size());
    for (const auto& m : s.medians) {
      ASSERT_EQ(m.size(), result().windows.size());
      for (const float v : m) EXPECT_GT(v, 0.0f);
    }
    ASSERT_EQ(s.volume.size(), result().windows.size());
    ASSERT_EQ(s.ci_lower.size(), result().windows.size());
    ASSERT_EQ(s.ci_upper.size(), result().windows.size());
  }
}

TEST_F(PopStudyTest, BgpPreferredIsFirstAndRanked) {
  // [0] must never be a transit route while a peer route exists in the set.
  for (const auto& s : result().series) {
    bool has_peer = false;
    for (const auto& r : s.routes) {
      has_peer |= r.role == topo::NeighborRole::Peer;
    }
    if (has_peer) {
      EXPECT_EQ(s.routes[0].role, topo::NeighborRole::Peer);
    }
  }
}

TEST_F(PopStudyTest, CiBoundsBracketOrdered) {
  for (const auto& s : result().series) {
    for (std::size_t w = 0; w < result().windows.size(); ++w) {
      EXPECT_LE(s.ci_lower[w], s.ci_upper[w]);
    }
  }
}

TEST_F(PopStudyTest, Fig1CdfMassNearZero) {
  const auto cdf = result().fig1_cdf();
  ASSERT_FALSE(cdf.empty());
  // The central reproduction claim: most traffic sits within +/-10 ms.
  const double within =
      cdf.fraction_at_most(10.0) - cdf.fraction_at_most(-10.0);
  EXPECT_GT(within, 0.6);
}

TEST_F(PopStudyTest, Fig1BoundsOrdered) {
  const auto point = result().fig1_cdf(PopStudyResult::Fig1Bound::Point);
  const auto lower = result().fig1_cdf(PopStudyResult::Fig1Bound::Lower);
  const auto upper = result().fig1_cdf(PopStudyResult::Fig1Bound::Upper);
  // ci_lower <= diff <= ci_upper implies stochastic ordering of the CDFs.
  for (const double x : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_GE(lower.fraction_at_most(x) + 1e-9, point.fraction_at_most(x));
    EXPECT_LE(upper.fraction_at_most(x) - 1e-9, point.fraction_at_most(x));
  }
}

TEST_F(PopStudyTest, ImprovableFractionMonotoneInThreshold) {
  double prev = 1.0;
  for (const double th : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    const double frac = result().improvable_traffic_fraction(th);
    EXPECT_LE(frac, prev + 1e-12);
    EXPECT_GE(frac, 0.0);
    prev = frac;
  }
}

TEST_F(PopStudyTest, ImprovableFractionIsSmallMinority) {
  EXPECT_LT(result().improvable_traffic_fraction(5.0), 0.25);
}

TEST_F(PopStudyTest, Fig2CurvesCenteredNearZero) {
  const auto pt = result().fig2_peer_vs_transit();
  if (!pt.empty()) {
    EXPECT_LT(std::abs(pt.quantile(0.5)), 8.0);
  }
  const auto pp = result().fig2_private_vs_public();
  if (!pp.empty()) {
    EXPECT_LT(std::abs(pp.quantile(0.5)), 8.0);
  }
}

TEST_F(PopStudyTest, DiffUsesBestAlternate) {
  const auto& s = result().series.front();
  for (std::size_t w = 0; w < result().windows.size(); ++w) {
    float best_alt = s.medians[1][w];
    for (std::size_t r = 2; r < s.medians.size(); ++r) {
      best_alt = std::min(best_alt, s.medians[r][w]);
    }
    EXPECT_FLOAT_EQ(s.diff(w), s.medians[0][w] - best_alt);
  }
}

TEST(PopStudy, DeterministicGivenSeed) {
  const auto a = run_pop_study(test::small_scenario(), quick_config());
  const auto b = run_pop_study(test::small_scenario(), quick_config());
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); i += 11) {
    EXPECT_EQ(a.series[i].prefix, b.series[i].prefix);
    EXPECT_EQ(a.series[i].medians, b.series[i].medians);
  }
}

TEST(PopStudy, IdenticalAcrossThreadCounts) {
  // The per-plan measurement loop fans out over the exec pool; every value
  // (medians, volume, bootstrap CIs) must be bit-identical whether the study
  // ran on one thread or several — the PR's determinism contract.
  PopStudyConfig cfg = quick_config();
  cfg.days = 0.25;
  exec::set_thread_count(1);
  const auto seq = run_pop_study(test::small_scenario(), cfg);
  exec::set_thread_count(4);
  const auto par = run_pop_study(test::small_scenario(), cfg);
  exec::set_thread_count(0);
  ASSERT_EQ(seq.series.size(), par.series.size());
  for (std::size_t i = 0; i < seq.series.size(); ++i) {
    EXPECT_EQ(seq.series[i].prefix, par.series[i].prefix);
    EXPECT_EQ(seq.series[i].medians, par.series[i].medians);
    EXPECT_EQ(seq.series[i].volume, par.series[i].volume);
    EXPECT_EQ(seq.series[i].ci_lower, par.series[i].ci_lower);
    EXPECT_EQ(seq.series[i].ci_upper, par.series[i].ci_upper);
  }
}

// Golden pin over every float the study emits per series, CI bounds
// included: the audit fingerprints render only the point CDF, so without this
// a bootstrap that drew the right number of values but returned different
// bounds would go unnoticed. Recorded with the selection-based bootstrap;
// the counting-rank kernel must reproduce it bit for bit.
TEST(PopStudy, SeriesBytesMatchGolden) {
  PopStudyConfig cfg;
  cfg.days = 1.0;
  cfg.window_stride = 8;
  cfg.bootstrap.resamples = 20;
  const auto result = run_pop_study(test::small_scenario(), cfg);
  std::string bytes;
  const auto append = [&bytes](const std::vector<float>& v) {
    bytes.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
  };
  for (const auto& s : result.series) {
    for (const auto& m : s.medians) append(m);
    append(s.volume);
    append(s.ci_lower);
    append(s.ci_upper);
  }
  EXPECT_EQ(result.series.size(), 255u);
  EXPECT_EQ(fnv1a64(bytes), 0xb3ce6f3ff0c94a47ULL);
}

// An unmeasurable plan has no alternate to compare BGP against; measuring it
// must be refused up front instead of indexing past the one route.
TEST(PopStudy, MeasureRejectsUnmeasurablePlan) {
  const auto& sc = test::small_scenario();
  const auto& client = sc.clients.at(0);
  const std::vector<TimeWindow> windows{TimeWindow{}};
  const lat::RttSampler sampler;
  const Rng root{1};
  const PopStudyConfig cfg;
  PairPlan plan;
  plan.routes.resize(1);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)measure_pop_pair(plan, client, windows, 1.0, 0.0, sc.config.demand,
                                      sc.latency, sampler, root, cfg),
               CheckError);
}

TEST(PopStudy, TopKLimitsRoutes) {
  PopStudyConfig cfg = quick_config();
  cfg.top_k_routes = 2;
  cfg.days = 0.25;
  const auto result = run_pop_study(test::small_scenario(), cfg);
  for (const auto& s : result.series) {
    EXPECT_LE(s.routes.size(), 2u);
  }
}

}  // namespace
}  // namespace bgpcmp::core
