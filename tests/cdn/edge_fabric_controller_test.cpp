#include "bgpcmp/cdn/edge_fabric_controller.h"

#include <gtest/gtest.h>

#include "bgpcmp/bgp/rib.h"
#include "../testutil.h"

namespace bgpcmp::cdn {
namespace {

class EdgeFabricControllerTest : public ::testing::Test {
 protected:
  static std::vector<EdgeFabricController::PrefixPlan> build_plans() {
    const auto& sc = test::small_scenario();
    const auto& g = sc.internet.graph;
    const auto& db = sc.internet.city_db();
    std::vector<EdgeFabricController::PrefixPlan> plans;
    for (traffic::PrefixId id = 0; id < sc.clients.size(); ++id) {
      const auto& client = sc.clients.at(id);
      const auto pop = sc.provider.serving_pop(g, db, client.origin_as, client.city);
      const auto rib = bgp::adj_rib_in(g, bgp::OriginSpec::everywhere(client.origin_as),
                                       sc.provider.as_index());
      auto options = edge_fabric::rank_by_policy(
          g, sc.provider.egress_options(g, rib, pop));
      if (options.empty()) continue;
      if (options.size() > 3) options.resize(3);
      plans.push_back(EdgeFabricController::PrefixPlan{id, pop, std::move(options)});
    }
    return plans;
  }

  static const EdgeFabricController& controller() {
    static const EdgeFabricController c{&test::small_scenario().internet.graph,
                                        &test::small_scenario().demand,
                                        build_plans()};
    return c;
  }
};

TEST_F(EdgeFabricControllerTest, CalibrationIsPositive) {
  EXPECT_GT(controller().bytes_per_gbps(), 0.0);
}

TEST_F(EdgeFabricControllerTest, OneAssignmentPerPlan) {
  const auto decision = controller().run_cycle(SimTime::hours(20));
  EXPECT_EQ(decision.assignments.size(), controller().plans().size());
  for (std::size_t i = 0; i < decision.assignments.size(); ++i) {
    const auto& a = decision.assignments[i];
    EXPECT_EQ(a.prefix, controller().plans()[i].prefix);
    EXPECT_LT(a.route_index, controller().plans()[i].options.size());
    EXPECT_EQ(a.detoured, a.route_index != 0);
  }
}

TEST_F(EdgeFabricControllerTest, DetouringRelievesOverloads) {
  // At the demand peak some interfaces overload under static placement; the
  // controller must strictly reduce the count.
  bool saw_overload = false;
  for (double h = 0; h < 24; h += 2) {
    const auto d = controller().run_cycle(SimTime::hours(h));
    EXPECT_LE(d.overloaded_links_after, d.overloaded_links_before);
    saw_overload |= d.overloaded_links_before > 0;
  }
  EXPECT_TRUE(saw_overload) << "calibration should create peak overloads";
}

TEST_F(EdgeFabricControllerTest, NoOverloadMeansNoDetours) {
  // With a generous limit, nothing overloads and nothing moves.
  EdgeFabricConfig lax;
  lax.utilization_limit = 1e9;
  const EdgeFabricController relaxed{&test::small_scenario().internet.graph,
                                     &test::small_scenario().demand, build_plans(),
                                     lax};
  const auto d = relaxed.run_cycle(SimTime::hours(20));
  EXPECT_EQ(d.overloaded_links_before, 0u);
  EXPECT_DOUBLE_EQ(d.detoured_traffic_fraction, 0.0);
  for (const auto& a : d.assignments) EXPECT_FALSE(a.detoured);
}

TEST_F(EdgeFabricControllerTest, DetouredFractionIsModest) {
  // Edge Fabric moves a small share of traffic, not the majority.
  double worst = 0.0;
  for (double h = 0; h < 24; h += 3) {
    worst = std::max(worst,
                     controller().run_cycle(SimTime::hours(h)).detoured_traffic_fraction);
  }
  EXPECT_LT(worst, 0.5);
}

TEST_F(EdgeFabricControllerTest, DeterministicCycles) {
  const auto a = controller().run_cycle(SimTime::hours(13));
  const auto b = controller().run_cycle(SimTime::hours(13));
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].route_index, b.assignments[i].route_index);
  }
}

}  // namespace
}  // namespace bgpcmp::cdn
