#include "bgpcmp/bgp/route.h"

#include <gtest/gtest.h>

#include "bgpcmp/bgp/propagation.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;

/// Chain P -> M -> C (providers downward), plus a peers-only island X -- Y.
class RouteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p_ = g_.add_as(Asn{1}, AsClass::Tier1, "P", {0});
    m_ = g_.add_as(Asn{2}, AsClass::Transit, "M", {0});
    c_ = g_.add_as(Asn{3}, AsClass::Eyeball, "C", {0});
    x_ = g_.add_as(Asn{4}, AsClass::Transit, "X", {0});
    y_ = g_.add_as(Asn{5}, AsClass::Transit, "Y", {0});
    auto link = [&](topo::EdgeId e, topo::LinkKind k) {
      g_.add_link(e, 0, k, GigabitsPerSecond{1});
    };
    link(g_.connect_transit(p_, m_), topo::LinkKind::Transit);
    link(g_.connect_transit(m_, c_), topo::LinkKind::Transit);
    link(g_.connect_peering(x_, y_), topo::LinkKind::PublicPeering);
    link(g_.connect_peering(p_, x_), topo::LinkKind::PublicPeering);
  }

  topo::AsGraph g_;
  topo::AsIndex p_, m_, c_, x_, y_;
};

TEST_F(RouteTest, PathEdgesParallelPath) {
  // Each hop's via edge joins it to the next AS on the path.
  const auto table = compute_routes(g_, c_);
  const auto path = table.path(p_);
  ASSERT_EQ(path.size(), 3u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto& e = g_.edge(table.at(path[i]).via_edge);
    EXPECT_TRUE((e.a == path[i] && e.b == path[i + 1]) ||
                (e.b == path[i] && e.a == path[i + 1]));
  }
}

TEST_F(RouteTest, UnreachablePathIsEmpty) {
  // Y can only be reached by X (peer) and transitively nobody else: from C's
  // origin, Y is unreachable because X would have to re-export a peer route.
  const auto table = compute_routes(g_, c_);
  EXPECT_TRUE(table.reachable(x_));  // via peer P (customer route of P)
  EXPECT_FALSE(table.reachable(y_));  // X won't re-export its peer route
  EXPECT_TRUE(table.path(y_).empty());
}

TEST_F(RouteTest, OriginPathIsItself) {
  const auto table = compute_routes(g_, c_);
  const auto path = table.path(c_);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], c_);
}

TEST_F(RouteTest, RouteClassRankOrdering) {
  EXPECT_LT(route_class_rank(RouteClass::Origin), route_class_rank(RouteClass::Customer));
  EXPECT_LT(route_class_rank(RouteClass::Customer), route_class_rank(RouteClass::Peer));
  EXPECT_LT(route_class_rank(RouteClass::Peer), route_class_rank(RouteClass::Provider));
  EXPECT_LT(route_class_rank(RouteClass::Provider), route_class_rank(RouteClass::None));
}

TEST_F(RouteTest, RouteClassNames) {
  EXPECT_EQ(route_class_name(RouteClass::Customer), "customer");
  EXPECT_EQ(route_class_name(RouteClass::None), "none");
}

TEST_F(RouteTest, PeersOnlyIslandHasOneHopReach) {
  // Origin X: Y hears it (peer), P hears it (peer); but M must rely on its
  // provider P re-exporting a peer route downward, which IS allowed
  // (providers export everything to customers).
  const auto table = compute_routes(g_, x_);
  EXPECT_TRUE(table.reachable(y_));
  EXPECT_TRUE(table.reachable(p_));
  EXPECT_TRUE(table.reachable(m_));
  EXPECT_EQ(table.at(m_).cls, RouteClass::Provider);
  // Y's peer route must not propagate anywhere.
  EXPECT_EQ(table.at(y_).cls, RouteClass::Peer);
}

}  // namespace
}  // namespace bgpcmp::bgp
