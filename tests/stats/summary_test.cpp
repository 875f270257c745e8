#include "bgpcmp/stats/summary.h"

#include <gtest/gtest.h>

#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::stats {
namespace {

TEST(Summary, EmptyState) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.str(), "n=0");
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.sum(), 4.0);
  EXPECT_EQ(s.str(), "n=1 mean=4.000 sd=0.000 min=4.000 max=4.000");
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.str(), "n=8 mean=5.000 sd=2.138 min=2.000 max=9.000");
}

TEST(Summary, WelfordMatchesNaiveOnRandomData) {
  Rng rng{21};
  Summary s;
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(1000.0, 0.01);  // stresses numerical stability
    v.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (const double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size() - 1);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(Summary, StrContainsFields) {
  Summary s;
  s.add(1.0);
  s.add(3.0);
  const auto str = s.str();
  EXPECT_NE(str.find("n=2"), std::string::npos);
  EXPECT_NE(str.find("mean=2.000"), std::string::npos);
}

TEST(Summary, NegativeValues) {
  Summary s;
  for (const double v : {-5.0, -1.0, -3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.sum(), -9.0);
  EXPECT_EQ(s.str(), "n=3 mean=-3.000 sd=2.000 min=-5.000 max=-1.000");
}

}  // namespace
}  // namespace bgpcmp::stats
