#include "bgpcmp/cdn/edge_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bgpcmp/bgp/policy.h"
#include "bgpcmp/bgp/propagation.h"
#include "../testutil.h"

namespace bgpcmp::cdn {
namespace {

class EdgeFabricTest : public ::testing::Test {
 protected:
  /// First client with >= 2 egress options at its serving PoP.
  void SetUp() override {
    const auto& sc = test::small_scenario();
    const auto& g = sc.internet.graph;
    const auto& db = sc.internet.city_db();
    for (traffic::PrefixId id = 0; id < sc.clients.size(); ++id) {
      const auto& client = sc.clients.at(id);
      pop_ = sc.provider.serving_pop(g, db, client.origin_as, client.city);
      table_.emplace(bgp::compute_routes(g, client.origin_as));
      options_ = sc.provider.egress_options(g, *table_, pop_);
      if (options_.size() >= 2) {
        client_ = id;
        return;
      }
    }
    FAIL() << "no client with route diversity";
  }

  const core::Scenario& sc_ = test::small_scenario();
  traffic::PrefixId client_ = 0;
  PopId pop_ = kNoPop;
  std::optional<bgp::RouteTable> table_;
  std::vector<EgressOption> options_;
};

TEST_F(EdgeFabricTest, RankingIsTotalAndStable) {
  const auto ranked = edge_fabric::rank_by_policy(sc_.internet.graph, options_);
  ASSERT_EQ(ranked.size(), options_.size());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_FALSE(bgp::egress_preferred(sc_.internet.graph, ranked[i].route,
                                       ranked[i].kind, ranked[i - 1].route,
                                       ranked[i - 1].kind))
        << "ranking not sorted at " << i;
  }
}

TEST_F(EdgeFabricTest, PreferredRouteIsPeerWhenAnyPeerExists) {
  const auto ranked = edge_fabric::rank_by_policy(sc_.internet.graph, options_);
  bool any_peer = false;
  for (const auto& o : ranked) {
    any_peer |= o.route.neighbor_role == topo::NeighborRole::Peer;
  }
  if (any_peer) {
    EXPECT_EQ(ranked[0].route.neighbor_role, topo::NeighborRole::Peer);
  }
}

TEST_F(EdgeFabricTest, EgressPathStartsAtPopAndEndsAtClient) {
  const auto& client = sc_.clients.at(client_);
  const auto& pop = sc_.provider.pop(pop_);
  for (const auto& opt : options_) {
    const auto path =
        edge_fabric::egress_path(sc_.internet.graph, sc_.internet.city_db(),
                                 sc_.provider.as_index(), pop, opt, client.city);
    ASSERT_TRUE(path.valid());
    EXPECT_EQ(path.as_path.front(), sc_.provider.as_index());
    EXPECT_EQ(path.as_path.back(), client.origin_as);
    EXPECT_EQ(path.segments.front().from, pop.city);
    EXPECT_EQ(path.segments.back().to, client.city);
    // The forced first link is the option's link.
    ASSERT_FALSE(path.crossed_links.empty());
    EXPECT_EQ(path.crossed_links.front(), opt.link);
  }
}

TEST_F(EdgeFabricTest, DistinctOptionsYieldDistinctFirstHops) {
  const auto& client = sc_.clients.at(client_);
  const auto& pop = sc_.provider.pop(pop_);
  std::set<topo::LinkId> first_links;
  for (const auto& opt : options_) {
    const auto path =
        edge_fabric::egress_path(sc_.internet.graph, sc_.internet.city_db(),
                                 sc_.provider.as_index(), pop, opt, client.city);
    if (path.valid()) first_links.insert(path.crossed_links.front());
  }
  EXPECT_EQ(first_links.size(), options_.size());
}

TEST(EdgeFabricTieBreak, DuplicateAsnPeersRankByIndex) {
  // More than 16 options tied on (rank, length, ASN): libstdc++ sorts ranges
  // of at most 16 by insertion, which keeps input order and would hide an
  // incomplete comparator. The ranking must come out in AS-index order
  // whatever order the options arrive in.
  constexpr std::size_t kPeers = 24;
  topo::AsGraph g;
  std::vector<EgressOption> options;
  for (std::size_t i = 0; i < kPeers; ++i) {
    EgressOption opt;
    opt.route.neighbor =
        g.add_as(Asn{500}, topo::AsClass::Eyeball, "P" + std::to_string(i), {0});
    opt.route.neighbor_role = topo::NeighborRole::Peer;
    opt.route.neighbor_class = bgp::RouteClass::Customer;
    opt.route.length = 2;
    opt.kind = topo::LinkKind::PrivatePeering;
    options.push_back(opt);
  }
  for (const bool reversed : {false, true}) {
    auto input = options;
    if (reversed) std::reverse(input.begin(), input.end());
    const auto ranked = edge_fabric::rank_by_policy(g, input);
    ASSERT_EQ(ranked.size(), kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      EXPECT_EQ(ranked[i].route.neighbor, static_cast<topo::AsIndex>(i))
          << "reversed " << reversed << " rank " << i;
    }
  }
}

}  // namespace
}  // namespace bgpcmp::cdn
