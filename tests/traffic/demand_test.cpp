#include "bgpcmp/traffic/demand.h"

#include <gtest/gtest.h>

namespace bgpcmp::traffic {
namespace {

class DemandTest : public ::testing::Test {
 protected:
  static topo::Internet small_internet() {
    topo::InternetConfig cfg;
    cfg.seed = 41;
    cfg.tier1_count = 4;
    cfg.transit_count = 10;
    cfg.eyeball_count = 20;
    cfg.stub_count = 8;
    return topo::build_internet(cfg);
  }

  void SetUp() override {
    clients_ = ClientBase::generate(net_, ClientBaseConfig{});
    demand_.emplace(&clients_, net_.cities, DemandConfig{});
  }

  topo::Internet net_ = small_internet();
  ClientBase clients_;
  std::optional<DemandModel> demand_;
};

TEST_F(DemandTest, VolumesArePositive) {
  for (PrefixId id = 0; id < clients_.size(); id += 7) {
    EXPECT_GT(demand_->volume(id, SimTime::hours(10)).value(), 0.0);
  }
}

TEST_F(DemandTest, PopularityIsHeavyTailed) {
  double max_pop = 0.0;
  double sum = 0.0;
  for (PrefixId id = 0; id < clients_.size(); ++id) {
    max_pop = std::max(max_pop, demand_->popularity(id));
    sum += demand_->popularity(id);
  }
  // The hottest prefix carries far more than the average share.
  EXPECT_GT(max_pop, 10.0 * sum / static_cast<double>(clients_.size()));
}

TEST_F(DemandTest, DiurnalSwingPeaksInLocalEvening) {
  // For any prefix, demand across the day must swing by the configured
  // amplitude and peak within the evening hours of its local time.
  const DemandConfig cfg;
  const PrefixId id = 0;
  double lo = 1e18;
  double hi = 0.0;
  for (double h = 0; h < 24; h += 0.25) {
    const double v = demand_->volume(id, SimTime::hours(h)).value();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(hi / lo, (1 + cfg.diurnal_amplitude) / (1 - cfg.diurnal_amplitude),
              0.05);
}

TEST_F(DemandTest, SameHourNextDayRepeats) {
  const PrefixId id = 3;
  EXPECT_DOUBLE_EQ(demand_->volume(id, SimTime::hours(10)).value(),
                   demand_->volume(id, SimTime::hours(34)).value());
}

TEST_F(DemandTest, DeterministicForSameConfig) {
  DemandModel other{&clients_, net_.cities, DemandConfig{}};
  for (PrefixId id = 0; id < clients_.size(); id += 13) {
    EXPECT_DOUBLE_EQ(other.popularity(id), demand_->popularity(id));
  }
}

TEST_F(DemandTest, PopularityScalesWithUserWeight) {
  // Correlation between user weight and popularity should be positive (the
  // heavy-tail factor modulates but does not erase population weighting).
  double sum_w = 0.0;
  double sum_p = 0.0;
  const auto n = static_cast<double>(clients_.size());
  for (PrefixId id = 0; id < clients_.size(); ++id) {
    sum_w += clients_.at(id).user_weight;
    sum_p += demand_->popularity(id);
  }
  const double mw = sum_w / n;
  const double mp = sum_p / n;
  double cov = 0.0;
  for (PrefixId id = 0; id < clients_.size(); ++id) {
    cov += (clients_.at(id).user_weight - mw) * (demand_->popularity(id) - mp);
  }
  EXPECT_GT(cov, 0.0);
}

}  // namespace
}  // namespace bgpcmp::traffic
