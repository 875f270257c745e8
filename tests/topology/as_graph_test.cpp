#include "bgpcmp/topology/as_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::topo {
namespace {

/// Small fixture: provider P over customers A, B; A-B peer.
class AsGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p_ = g_.add_as(Asn{100}, AsClass::Tier1, "P", {0, 1, 2});
    a_ = g_.add_as(Asn{200}, AsClass::Eyeball, "A", {0, 1});
    b_ = g_.add_as(Asn{300}, AsClass::Eyeball, "B", {1, 2});
    pa_ = g_.connect_transit(p_, a_);
    pb_ = g_.connect_transit(p_, b_);
    ab_ = g_.connect_peering(a_, b_);
    g_.add_link(pa_, 0, LinkKind::Transit, GigabitsPerSecond{10});
    g_.add_link(pa_, 1, LinkKind::Transit, GigabitsPerSecond{10});
    g_.add_link(pb_, 2, LinkKind::Transit, GigabitsPerSecond{10});
    g_.add_link(ab_, 1, LinkKind::PublicPeering, GigabitsPerSecond{5});
  }

  AsGraph g_;
  AsIndex p_ = kNoAs, a_ = kNoAs, b_ = kNoAs;
  EdgeId pa_ = kNoEdge, pb_ = kNoEdge, ab_ = kNoEdge;
};

TEST_F(AsGraphTest, Counts) {
  EXPECT_EQ(g_.as_count(), 3u);
  EXPECT_EQ(g_.edge_count(), 3u);
  EXPECT_EQ(g_.link_count(), 4u);
}

TEST_F(AsGraphTest, NodeAttributes) {
  EXPECT_EQ(g_.node(p_).asn, Asn{100});
  EXPECT_EQ(g_.node(p_).cls, AsClass::Tier1);
  EXPECT_EQ(g_.node(p_).hub, 0);  // defaults to first presence city
}

TEST_F(AsGraphTest, ExplicitHub) {
  const AsIndex c = g_.add_as(Asn{400}, AsClass::Stub, "C", {3, 4}, 4);
  EXPECT_EQ(g_.node(c).hub, 4);
}

TEST_F(AsGraphTest, NeighborsWithRoles) {
  const auto nbs = g_.neighbors(a_);
  ASSERT_EQ(nbs.size(), 2u);
  // From A's view: P is a provider, B is a peer.
  for (const auto& nb : nbs) {
    if (nb.as == p_) {
      EXPECT_EQ(nb.role, NeighborRole::Provider);
    }
    if (nb.as == b_) {
      EXPECT_EQ(nb.role, NeighborRole::Peer);
    }
  }
}

TEST_F(AsGraphTest, RoleOfOtherIsAsymmetric) {
  EXPECT_EQ(g_.role_of_other(pa_, p_), NeighborRole::Customer);  // A is P's customer
  EXPECT_EQ(g_.role_of_other(pa_, a_), NeighborRole::Provider);  // P is A's provider
  EXPECT_EQ(g_.role_of_other(ab_, a_), NeighborRole::Peer);
  EXPECT_EQ(g_.role_of_other(ab_, b_), NeighborRole::Peer);
}

TEST_F(AsGraphTest, OtherEnd) {
  EXPECT_EQ(g_.other_end(pa_, p_), a_);
  EXPECT_EQ(g_.other_end(pa_, a_), p_);
}

TEST_F(AsGraphTest, FindEdgeIsSymmetric) {
  EXPECT_EQ(g_.find_edge(p_, a_), pa_);
  EXPECT_EQ(g_.find_edge(a_, p_), pa_);
  EXPECT_FALSE(g_.find_edge(p_, p_ + 100));
}

TEST_F(AsGraphTest, LinksAttachToEdges) {
  EXPECT_EQ(g_.edge(pa_).links.size(), 2u);
  EXPECT_EQ(g_.edge(pb_).links.size(), 1u);
  for (const LinkId l : g_.edge(pa_).links) {
    EXPECT_EQ(g_.link(l).edge, pa_);
  }
}

TEST_F(AsGraphTest, HasPresence) {
  EXPECT_TRUE(g_.has_presence(a_, 0));
  EXPECT_TRUE(g_.has_presence(a_, 1));
  EXPECT_FALSE(g_.has_presence(a_, 2));
}

TEST_F(AsGraphTest, FindAsn) {
  EXPECT_EQ(g_.find_asn(Asn{300}), b_);
  EXPECT_FALSE(g_.find_asn(Asn{999}));
}

TEST_F(AsGraphTest, FindAsnDuplicateKeepsFirst) {
  // Historical scan semantics: the lowest index registered under an ASN wins.
  const AsIndex dup = g_.add_as(Asn{100}, AsClass::Stub, "P2", {5});
  EXPECT_NE(dup, p_);
  EXPECT_EQ(g_.find_asn(Asn{100}), p_);
}

TEST_F(AsGraphTest, AddPresenceGrowsFootprintOnce) {
  EXPECT_FALSE(g_.has_presence(a_, 7));
  g_.add_presence(a_, 7);
  EXPECT_TRUE(g_.has_presence(a_, 7));
  ASSERT_EQ(g_.node(a_).presence.size(), 3u);
  EXPECT_EQ(g_.node(a_).presence.back(), 7);
  // Duplicate insertion is a no-op, like the historical linear-scan guard.
  g_.add_presence(a_, 7);
  EXPECT_EQ(g_.node(a_).presence.size(), 3u);
}

TEST_F(AsGraphTest, AddPresenceKeepsEdgeIndexSnapshot) {
  // Presence is node metadata, not incidence: growing a footprint must not
  // invalidate the CSR cache the route machinery holds.
  const EdgeIndex& idx = g_.edge_index();
  g_.add_presence(b_, 9);
  EXPECT_EQ(&g_.edge_index(), &idx);
}

TEST_F(AsGraphTest, DuplicatePresenceInAddAsIsIndexed) {
  // Presence vectors may legitimately contain duplicates (e.g. a hub city
  // repeated); the membership index must still answer correctly.
  const AsIndex c = g_.add_as(Asn{400}, AsClass::Transit, "C", {4, 4, 6});
  EXPECT_TRUE(g_.has_presence(c, 4));
  EXPECT_TRUE(g_.has_presence(c, 6));
  EXPECT_FALSE(g_.has_presence(c, 5));
  EXPECT_EQ(g_.node(c).presence.size(), 3u);
}

TEST_F(AsGraphTest, CopiedGraphAnswersIndexQueries) {
  // The incremental indices travel with copies and keep answering after
  // further mutation of the copy.
  AsGraph copy{g_};
  EXPECT_EQ(copy.find_edge(a_, b_), ab_);
  EXPECT_EQ(copy.find_asn(Asn{200}), a_);
  EXPECT_TRUE(copy.has_presence(p_, 2));
  const AsIndex c = copy.add_as(Asn{400}, AsClass::Stub, "C", {8});
  const EdgeId pc = copy.connect_transit(p_, c);
  EXPECT_EQ(copy.find_edge(c, p_), pc);
  EXPECT_EQ(copy.find_asn(Asn{400}), c);
  // The original is unaffected.
  EXPECT_FALSE(g_.find_asn(Asn{400}));
  EXPECT_FALSE(g_.find_edge(p_, c));
}

TEST_F(AsGraphTest, OfClass) {
  EXPECT_EQ(g_.of_class(AsClass::Tier1).size(), 1u);
  EXPECT_EQ(g_.of_class(AsClass::Eyeball).size(), 2u);
  EXPECT_TRUE(g_.of_class(AsClass::Content).empty());
}

TEST_F(AsGraphTest, EdgeIndexMatchesInsertionOrder) {
  const EdgeIndex& idx = g_.edge_index();
  for (AsIndex i = 0; i < g_.as_count(); ++i) {
    const auto row = idx.edges_of(i);
    const auto& expected = g_.node(i).edges;
    ASSERT_EQ(row.size(), expected.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
  }
}

TEST_F(AsGraphTest, EdgeIndexGroupsClassifyByRole) {
  const EdgeIndex& idx = g_.edge_index();
  // P is provider on both transit edges; A is customer on pa_ and peer on ab_.
  EXPECT_TRUE(idx.up_edges(p_).empty());
  ASSERT_EQ(idx.down_edges(p_).size(), 2u);
  EXPECT_EQ(idx.down_edges(p_)[0], pa_);
  EXPECT_EQ(idx.down_edges(p_)[1], pb_);
  ASSERT_EQ(idx.up_edges(a_).size(), 1u);
  EXPECT_EQ(idx.up_edges(a_)[0], pa_);
  EXPECT_TRUE(idx.down_edges(a_).empty());
  ASSERT_EQ(idx.peer_edges(a_).size(), 1u);
  EXPECT_EQ(idx.peer_edges(a_)[0], ab_);
}

TEST_F(AsGraphTest, EdgeIndexFarEndsParallelTheGroups) {
  const EdgeIndex& idx = g_.edge_index();
  for (AsIndex i = 0; i < g_.as_count(); ++i) {
    for (const auto& [edges, far] : {std::pair{idx.up_edges(i), idx.up_far(i)},
                                     std::pair{idx.down_edges(i), idx.down_far(i)},
                                     std::pair{idx.peer_edges(i), idx.peer_far(i)}}) {
      ASSERT_EQ(edges.size(), far.size());
      for (std::size_t k = 0; k < edges.size(); ++k) {
        EXPECT_EQ(far[k], g_.other_end(edges[k], i));
      }
    }
    EXPECT_EQ(idx.asns()[i], g_.node(i).asn.value());
  }
  ASSERT_EQ(idx.up_far(a_).size(), 1u);
  EXPECT_EQ(idx.up_far(a_)[0], p_);
  EXPECT_EQ(idx.peer_far(a_)[0], b_);
}

TEST_F(AsGraphTest, ProviderFirstOrderPlacesProvidersBeforeCustomers) {
  // A second level: C is a customer of A, so the order is P, {A, B}, C.
  const AsIndex c = g_.add_as(Asn{400}, AsClass::Stub, "C", {0});
  g_.connect_transit(a_, c);
  const auto order = g_.edge_index().provider_first();
  EXPECT_EQ(std::vector<AsIndex>(order.begin(), order.end()),
            (std::vector<AsIndex>{p_, a_, b_, c}));
}

TEST_F(AsGraphTest, ProviderFirstOrderIsEmptyForAProviderCycle) {
  // P -> A -> C -> P closes a provider loop: no AS can go first.
  const AsIndex c = g_.add_as(Asn{400}, AsClass::Stub, "C", {0});
  g_.connect_transit(a_, c);
  g_.connect_transit(c, p_);
  EXPECT_TRUE(g_.edge_index().provider_first().empty());
  EXPECT_EQ(g_.edge_index().as_count(), 4u);
}

TEST_F(AsGraphTest, EdgeIndexInvalidatedByMutation) {
  EXPECT_EQ(g_.edge_index().as_count(), 3u);
  const AsIndex c = g_.add_as(Asn{400}, AsClass::Stub, "C", {0});
  const EdgeId pc = g_.connect_transit(p_, c);
  const EdgeIndex& idx = g_.edge_index();
  EXPECT_EQ(idx.as_count(), 4u);
  ASSERT_EQ(idx.up_edges(c).size(), 1u);
  EXPECT_EQ(idx.up_edges(c)[0], pc);
  EXPECT_EQ(idx.down_edges(p_).size(), 3u);
}

TEST_F(AsGraphTest, CopySharesEdgeIndexSnapshot) {
  const EdgeIndex& idx = g_.edge_index();
  const AsGraph copy{g_};
  // The copy is the same topology, so it carries the same immutable snapshot.
  EXPECT_EQ(&copy.edge_index(), &idx);
  // Mutating the copy drops only the copy's cache.
  AsGraph mutated{g_};
  mutated.add_as(Asn{500}, AsClass::Stub, "D", {0});
  EXPECT_NE(&mutated.edge_index(), &idx);
  EXPECT_EQ(&g_.edge_index(), &idx);
}

TEST(EdgeIndexGenerated, RoundTripsAgainstEdgeIteration) {
  InternetConfig cfg;
  cfg.seed = 11;
  cfg.tier1_count = 4;
  cfg.transit_count = 10;
  cfg.eyeball_count = 20;
  cfg.stub_count = 10;
  const auto net = build_internet(cfg);
  const AsGraph& g = net.graph;
  const EdgeIndex& idx = g.edge_index();
  ASSERT_EQ(idx.as_count(), g.as_count());
  std::size_t total = 0;
  for (AsIndex i = 0; i < g.as_count(); ++i) {
    const auto row = idx.edges_of(i);
    const auto& expected = g.node(i).edges;
    ASSERT_EQ(row.size(), expected.size()) << "AS " << g.node(i).name;
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
    total += row.size();
    // The grouped layout partitions the row, each edge under its role.
    std::vector<EdgeId> grouped;
    for (const EdgeId e : idx.up_edges(i)) {
      EXPECT_EQ(g.role_of_other(e, i), NeighborRole::Provider);
      grouped.push_back(e);
    }
    for (const EdgeId e : idx.down_edges(i)) {
      EXPECT_EQ(g.role_of_other(e, i), NeighborRole::Customer);
      grouped.push_back(e);
    }
    for (const EdgeId e : idx.peer_edges(i)) {
      EXPECT_EQ(g.role_of_other(e, i), NeighborRole::Peer);
      grouped.push_back(e);
    }
    std::vector<EdgeId> want{expected.begin(), expected.end()};
    std::sort(grouped.begin(), grouped.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(grouped, want);
  }
  // Every edge appears exactly twice (once per endpoint).
  EXPECT_EQ(total, 2 * g.edge_count());
  // The provider-first order is a permutation with every provider placed
  // before each of its customers.
  const auto order = idx.provider_first();
  ASSERT_EQ(order.size(), g.as_count());
  std::vector<std::size_t> pos(g.as_count(), g.as_count());
  for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
  for (const AsEdge& e : g.edges()) {
    if (e.rel == Relationship::ProviderCustomer) {
      EXPECT_LT(pos[e.a], pos[e.b]);
    }
  }
}

TEST(AsGraphNames, ClassAndKindNames) {
  EXPECT_EQ(as_class_name(AsClass::Tier1), "tier1");
  EXPECT_EQ(as_class_name(AsClass::Content), "content");
  EXPECT_EQ(link_kind_name(LinkKind::PrivatePeering), "private-peering");
  EXPECT_EQ(link_kind_name(LinkKind::Transit), "transit");
}

TEST(Asn, ValidityAndFormat) {
  EXPECT_FALSE(Asn{}.valid());
  EXPECT_TRUE(Asn{64512}.valid());
  EXPECT_EQ(Asn{65001}.str(), "AS65001");
}

}  // namespace
}  // namespace bgpcmp::topo
