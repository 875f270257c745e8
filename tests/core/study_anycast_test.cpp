#include "bgpcmp/core/study_anycast.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace bgpcmp::core {
namespace {

AnycastStudyConfig quick_config() {
  AnycastStudyConfig cfg;
  cfg.beacon_rounds = 2;
  cfg.eval_windows = 4;
  return cfg;
}

class AnycastStudyTest : public ::testing::Test {
 protected:
  static const AnycastStudyResult& result() {
    static const auto r = [] {
      const auto& sc = test::small_scenario();
      static cdn::AnycastCdn cdn{&sc.internet, &sc.provider};
      return run_anycast_study(sc, cdn, quick_config());
    }();
    return r;
  }
};

TEST_F(AnycastStudyTest, Fig3PopulationsAreNested) {
  EXPECT_GT(result().fig3_world.count(), 0u);
  EXPECT_GT(result().fig3_europe.count(), 0u);
  EXPECT_GT(result().fig3_us.count(), 0u);
  EXPECT_LE(result().fig3_europe.count() + result().fig3_us.count(),
            result().fig3_world.count());
}

TEST_F(AnycastStudyTest, GapIsBoundedBelow) {
  // anycast - best unicast can be slightly negative only through measurement
  // noise; strongly negative values would indicate a broken pairing.
  EXPECT_EQ(result().fig3_world.fraction_at_most(-20.0), 0.0);
}

TEST_F(AnycastStudyTest, HeadlinesMatchTheCdfs) {
  EXPECT_DOUBLE_EQ(result().frac_within_10ms,
                   result().fig3_world.fraction_at_most(10.0));
  EXPECT_DOUBLE_EQ(result().frac_unicast_100ms_faster,
                   result().fig3_world.fraction_above(100.0));
}

TEST_F(AnycastStudyTest, MajorityWithinTwentyFiveMs) {
  EXPECT_GT(result().fig3_world.fraction_at_most(25.0), 0.5);
}

TEST_F(AnycastStudyTest, Fig4CoversTheClientBase) {
  EXPECT_GT(result().fig4_median.count(), test::small_scenario().clients.size() / 2);
  EXPECT_EQ(result().fig4_median.count(), result().fig4_p75.count());
}

TEST_F(AnycastStudyTest, Fig4FractionsAreDisjoint) {
  EXPECT_GE(result().fig4_improved_fraction, 0.0);
  EXPECT_GE(result().fig4_worse_fraction, 0.0);
  EXPECT_LE(result().fig4_improved_fraction + result().fig4_worse_fraction, 1.0);
}

TEST_F(AnycastStudyTest, RedirectionBothWinsAndLoses) {
  // The paper's sharpest Fig 4 observation: the scheme wins for some /24s and
  // hurts others.
  EXPECT_GT(result().fig4_improved_fraction, 0.0);
  EXPECT_GT(result().fig4_worse_fraction, 0.0);
}

TEST_F(AnycastStudyTest, AnycastDecisionsProduceZeroImprovement) {
  // A large share of /24s must sit exactly at zero (clusters that stayed on
  // anycast), matching the figure's step at 0.
  const double at_zero = result().fig4_median.fraction_at_most(0.5) -
                         result().fig4_median.fraction_at_most(-0.5);
  EXPECT_GT(at_zero, 0.2);
}

TEST(AnycastStudy, DeterministicGivenConfig) {
  const auto& sc = test::small_scenario();
  cdn::AnycastCdn cdn{&sc.internet, &sc.provider};
  const auto a = run_anycast_study(sc, cdn, quick_config());
  const auto b = run_anycast_study(sc, cdn, quick_config());
  EXPECT_DOUBLE_EQ(a.frac_within_10ms, b.frac_within_10ms);
  EXPECT_DOUBLE_EQ(a.fig4_improved_fraction, b.fig4_improved_fraction);
}

}  // namespace
}  // namespace bgpcmp::core
