#include "bgpcmp/bgp/propagation.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "bgpcmp/bgp/validate.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;
using topo::AsGraph;
using topo::LinkKind;

/// Field-by-field equality of two tables: class, length, next hop, and the
/// edge the route was learned on must all match — the "byte-identical"
/// golden the worklist algorithm is pinned to.
void expect_identical(const RouteTable& got, const RouteTable& want,
                      const AsGraph& g) {
  ASSERT_EQ(got.size(), want.size());
  for (topo::AsIndex i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).cls, want.at(i).cls) << g.node(i).name;
    EXPECT_EQ(got.at(i).length, want.at(i).length) << g.node(i).name;
    EXPECT_EQ(got.at(i).next_hop, want.at(i).next_hop) << g.node(i).name;
    EXPECT_EQ(got.at(i).via_edge, want.at(i).via_edge) << g.node(i).name;
  }
}

/// Hand-built textbook topology:
///
///        T1a ===== T1b          (Tier-1 peer mesh)
///        /  |        |
///      TRa  TRb     TRc         (transits: customers of Tier-1s)
///      /      |     /  |
///    EBa     EBb  EBb  EBc      (eyeballs; TRb and TRc both serve EBb)
///
/// TRa -- TRb peer; EBa -- EBb peer.
class PropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1a_ = g_.add_as(Asn{10}, AsClass::Tier1, "T1a", {0, 1, 2});
    t1b_ = g_.add_as(Asn{11}, AsClass::Tier1, "T1b", {0, 1, 2});
    tra_ = g_.add_as(Asn{20}, AsClass::Transit, "TRa", {0, 1});
    trb_ = g_.add_as(Asn{21}, AsClass::Transit, "TRb", {1, 2});
    trc_ = g_.add_as(Asn{22}, AsClass::Transit, "TRc", {0, 2});
    eba_ = g_.add_as(Asn{30}, AsClass::Eyeball, "EBa", {0, 1});
    ebb_ = g_.add_as(Asn{31}, AsClass::Eyeball, "EBb", {0, 1, 2});
    ebc_ = g_.add_as(Asn{32}, AsClass::Eyeball, "EBc", {2});

    auto transit = [&](topo::AsIndex p, topo::AsIndex c, topo::CityId city) {
      const auto e = g_.connect_transit(p, c);
      g_.add_link(e, city, LinkKind::Transit, GigabitsPerSecond{100});
      return e;
    };
    auto peer = [&](topo::AsIndex a, topo::AsIndex b, topo::CityId city) {
      const auto e = g_.connect_peering(a, b);
      g_.add_link(e, city, LinkKind::PublicPeering, GigabitsPerSecond{100});
      return e;
    };
    peer(t1a_, t1b_, 0);
    transit(t1a_, tra_, 0);
    transit(t1a_, trb_, 1);
    transit(t1b_, trc_, 2);
    e_tra_eba_ = transit(tra_, eba_, 0);
    transit(trb_, ebb_, 1);
    transit(trc_, ebb_, 2);
    transit(trc_, ebc_, 2);
    peer(tra_, trb_, 1);
    e_eba_ebb_ = peer(eba_, ebb_, 0);  // direct eyeball peering
  }

  AsGraph g_;
  topo::AsIndex t1a_, t1b_, tra_, trb_, trc_, eba_, ebb_, ebc_;
  topo::EdgeId e_tra_eba_ = topo::kNoEdge;
  topo::EdgeId e_eba_ebb_ = topo::kNoEdge;
};

TEST_F(PropagationTest, OriginSelectsItself) {
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(eba_).cls, RouteClass::Origin);
  EXPECT_EQ(table.at(eba_).length, 0);
}

TEST_F(PropagationTest, EveryoneReachesTheOrigin) {
  const auto table = compute_routes(g_, eba_);
  for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
    EXPECT_TRUE(table.reachable(i)) << g_.node(i).name;
  }
}

TEST_F(PropagationTest, ProviderLearnsCustomerRoute) {
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(tra_).cls, RouteClass::Customer);
  EXPECT_EQ(table.at(tra_).length, 1);
  EXPECT_EQ(table.at(tra_).next_hop, eba_);
  EXPECT_EQ(table.at(t1a_).cls, RouteClass::Customer);
  EXPECT_EQ(table.at(t1a_).length, 2);
}

TEST_F(PropagationTest, PeerRoutePreferredOverProviderRoute) {
  // EBb can reach EBa via its direct peering (peer, len 1) or via its
  // providers (provider, len >= 2). LocalPref must pick the peer route.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(ebb_).cls, RouteClass::Peer);
  EXPECT_EQ(table.at(ebb_).next_hop, eba_);
}

TEST_F(PropagationTest, CustomerRoutePreferredEvenIfLonger) {
  // T1b has a peer route via T1a (len 3: T1a->TRa->EBa) and a customer route
  // via TRc? TRc has no route to EBa below it... so T1b uses the peer route.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(t1b_).cls, RouteClass::Peer);
  EXPECT_EQ(table.at(t1b_).next_hop, t1a_);
}

TEST_F(PropagationTest, ProviderRouteDescends) {
  // EBc's only route is via its provider TRc -> T1b -> T1a -> TRa -> EBa.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(ebc_).cls, RouteClass::Provider);
  const auto path = table.path(ebc_);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path.front(), ebc_);
  EXPECT_EQ(path.back(), eba_);
  EXPECT_TRUE(is_valley_free(g_, path));
}

TEST_F(PropagationTest, NoPeerRouteChaining) {
  // TRb peers with TRa (which has a customer route to EBa). TRb may use that
  // peer route, but TRb's peer route must NOT propagate onward to another
  // peer — T1b must not learn EBa via TRb.
  const auto table = compute_routes(g_, eba_);
  EXPECT_EQ(table.at(trb_).cls, RouteClass::Peer);
  EXPECT_NE(table.at(t1b_).next_hop, trb_);
}

TEST_F(PropagationTest, AllPathsValleyFree) {
  for (const topo::AsIndex origin : {eba_, ebb_, ebc_, tra_, t1a_}) {
    const auto table = compute_routes(g_, origin);
    for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
      if (!table.reachable(i)) continue;
      EXPECT_TRUE(is_valley_free(g_, table.path(i)))
          << "origin " << g_.node(origin).name << " at " << g_.node(i).name;
    }
  }
}

TEST_F(PropagationTest, TableConsistencyInvariant) {
  for (const topo::AsIndex origin : {eba_, ebb_, ebc_, trc_}) {
    EXPECT_TRUE(table_is_consistent(g_, compute_routes(g_, origin)));
  }
}

TEST_F(PropagationTest, SuppressedEdgeIsNotUsed) {
  OriginSpec spec = OriginSpec::everywhere(eba_);
  spec.suppress.insert(e_eba_ebb_);  // withdraw from the EBb peering
  const auto table = compute_routes(g_, spec);
  // EBb must now route via providers instead of the direct peering.
  EXPECT_NE(table.at(ebb_).next_hop, eba_);
  EXPECT_TRUE(table.reachable(ebb_));
}

TEST_F(PropagationTest, PrependingDeflectsTies) {
  // Prepending on the announcement to TRa lengthens every path through TRa.
  OriginSpec plain = OriginSpec::everywhere(eba_);
  OriginSpec groomed = OriginSpec::everywhere(eba_);
  groomed.prepend[e_tra_eba_] = 4;
  const auto before = compute_routes(g_, plain);
  const auto after = compute_routes(g_, groomed);
  EXPECT_EQ(before.at(tra_).length, 1);
  EXPECT_EQ(after.at(tra_).length, 5);
  // T1a's customer route through TRa lengthens accordingly.
  EXPECT_EQ(after.at(t1a_).length, before.at(t1a_).length + 4);
}

TEST_F(PropagationTest, ScopedAnnouncementRestrictsOrigin) {
  // Announce only on the TRa session: EBb's direct peering no longer hears it.
  const auto links = g_.edge(e_tra_eba_).links;
  const auto spec = OriginSpec::scoped(eba_, links);
  const auto table = compute_routes(g_, spec);
  EXPECT_EQ(table.at(ebb_).cls, RouteClass::Provider);  // via its providers
  EXPECT_NE(table.at(ebb_).next_hop, eba_);
  EXPECT_TRUE(table.reachable(ebc_));
}

TEST_F(PropagationTest, TiebreakPrefersLowerAsn) {
  // EBb hears EBa's prefix from its two providers TRb (ASN 21) and TRc (ASN
  // 22) when the peering is suppressed... TRb route: len 3 via T1a? Actually
  // compare two provider routes of equal length; the lower-ASN neighbor wins.
  OriginSpec spec = OriginSpec::everywhere(eba_);
  spec.suppress.insert(e_eba_ebb_);
  const auto table = compute_routes(g_, spec);
  const auto& route = table.at(ebb_);
  ASSERT_EQ(route.cls, RouteClass::Provider);
  // TRb reaches via peer TRa (len 2); TRc via T1b,T1a,TRa (len 4).
  EXPECT_EQ(route.next_hop, trb_);
}

TEST_F(PropagationTest, UnreachableWhenFullyCut) {
  OriginSpec spec = OriginSpec::everywhere(ebc_);
  // EBc's only session is with TRc; suppressing it isolates the prefix.
  const auto edge = g_.find_edge(trc_, ebc_);
  ASSERT_TRUE(edge);
  spec.suppress.insert(*edge);
  const auto table = compute_routes(g_, spec);
  for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
    if (i == ebc_) continue;
    EXPECT_FALSE(table.reachable(i)) << g_.node(i).name;
  }
}

TEST_F(PropagationTest, WorklistMatchesReferenceForEveryOrigin) {
  for (topo::AsIndex origin = 0; origin < g_.as_count(); ++origin) {
    const OriginSpec spec = OriginSpec::everywhere(origin);
    expect_identical(compute_routes(g_, spec), compute_routes_reference(g_, spec),
                     g_);
  }
}

TEST_F(PropagationTest, WorklistMatchesReferenceUnderSpecVariants) {
  // Suppression, prepending, and scoped announcements all reroute traffic;
  // the worklist must track the reference through each.
  OriginSpec suppressed = OriginSpec::everywhere(eba_);
  suppressed.suppress.insert(e_eba_ebb_);
  OriginSpec prepended = OriginSpec::everywhere(eba_);
  prepended.prepend[e_tra_eba_] = 4;
  const OriginSpec scoped = OriginSpec::scoped(eba_, g_.edge(e_tra_eba_).links);
  for (const OriginSpec& spec : {suppressed, prepended, scoped}) {
    expect_identical(compute_routes(g_, spec), compute_routes_reference(g_, spec),
                     g_);
  }
}

TEST(PropagationTieBreak, DuplicateAsnsBreakOnIndexNotVisitOrder) {
  // AsGraph accepts duplicate ASNs. A and B share ASN 500 and both offer T a
  // two-hop customer route; B's session with O is added first, so a
  // worklist visits B first. The tie must still go to the lower AS index.
  AsGraph g;
  const topo::AsIndex o = g.add_as(Asn{700}, AsClass::Eyeball, "O", {0});
  const topo::AsIndex a = g.add_as(Asn{500}, AsClass::Transit, "A", {0});
  const topo::AsIndex b = g.add_as(Asn{500}, AsClass::Transit, "B", {0});
  const topo::AsIndex t = g.add_as(Asn{100}, AsClass::Tier1, "T", {0});
  g.connect_transit(b, o);
  g.connect_transit(a, o);
  g.connect_transit(t, a);
  g.connect_transit(t, b);
  const OriginSpec spec = OriginSpec::everywhere(o);
  const auto table = compute_routes(g, spec);
  EXPECT_EQ(table.at(t).next_hop, a);
  expect_identical(table, compute_routes_reference(g, spec), g);
}

TEST(PropagationCycle, ProviderCycleIsRejected) {
  // X -> Y -> Z -> X: every AS is its own indirect provider. Gao-Rexford
  // propagation has no provider-first order here, so it must refuse.
  AsGraph g;
  const topo::AsIndex x = g.add_as(Asn{1}, AsClass::Transit, "X", {0});
  const topo::AsIndex y = g.add_as(Asn{2}, AsClass::Transit, "Y", {0});
  const topo::AsIndex z = g.add_as(Asn{3}, AsClass::Transit, "Z", {0});
  g.connect_transit(x, y);
  g.connect_transit(y, z);
  g.connect_transit(z, x);
  ScopedCheckThrows guard;
  EXPECT_THROW((void)compute_routes(g, x), CheckError);
}

TEST_F(PropagationTest, ConcurrentComputeOnColdGraphIsRaceFree) {
  // First-touch of the lazy CSR index from many threads: losers of the build
  // race must adopt the winner's snapshot (tsan guards this path in CI). g_
  // is cold here — no compute has run in this fixture instance yet.
  std::vector<std::optional<RouteTable>> slots(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    threads.emplace_back([&, t] { slots[t].emplace(compute_routes(g_, eba_)); });
  }
  for (auto& th : threads) th.join();
  const auto want = compute_routes_reference(g_, OriginSpec::everywhere(eba_));
  for (const auto& slot : slots) expect_identical(*slot, want, g_);
}

/// Property suite over generated Internets: valley-freeness and consistency
/// hold for every origin in every seed.
class PropagationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropagationProperty, GeneratedInternetInvariants) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  const auto net = topo::build_internet(cfg);
  int checked = 0;
  for (topo::AsIndex origin = 0; origin < net.graph.as_count(); origin += 7) {
    const auto table = compute_routes(net.graph, origin);
    EXPECT_TRUE(table_is_consistent(net.graph, table))
        << "origin " << net.graph.node(origin).name;
    // Everyone is connected in a generated Internet.
    for (topo::AsIndex i = 0; i < net.graph.as_count(); ++i) {
      EXPECT_TRUE(table.reachable(i));
    }
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

TEST_P(PropagationProperty, WorklistMatchesReferenceGolden) {
  topo::InternetConfig cfg;
  cfg.seed = GetParam();
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  const auto net = topo::build_internet(cfg);
  for (topo::AsIndex origin = 0; origin < net.graph.as_count(); origin += 5) {
    const OriginSpec spec = OriginSpec::everywhere(origin);
    expect_identical(compute_routes(net.graph, spec),
                     compute_routes_reference(net.graph, spec), net.graph);
  }
}

TEST(PropagationGenerated, WorklistMatchesReferenceUnderSpecVariantsAt4x) {
  // The same golden on a 4x generated world (~1,500 ASes), where the
  // provider hierarchy is deep enough for long descents: scoped
  // announcements, suppressed sessions and large prepends on a spread of
  // eyeball origins.
  topo::InternetConfig cfg;
  cfg.tier1_count *= 4;
  cfg.transit_count *= 4;
  cfg.eyeball_count *= 4;
  cfg.stub_count *= 4;
  const auto net = topo::build_internet(cfg);
  const AsGraph& g = net.graph;
  const topo::EdgeIndex& idx = g.edge_index();
  int checked = 0;
  for (std::size_t k = 0; k < net.eyeballs.size(); k += 97) {
    const topo::AsIndex o = net.eyeballs[k];
    const auto up = idx.up_edges(o);
    const auto peers = idx.peer_edges(o);
    ASSERT_FALSE(up.empty());
    std::vector<OriginSpec> specs;
    specs.push_back(OriginSpec::scoped(o, g.edge(up.front()).links));
    OriginSpec suppressed = OriginSpec::everywhere(o);
    suppressed.suppress.insert(up.front());
    if (!peers.empty()) suppressed.suppress.insert(peers.front());
    specs.push_back(suppressed);
    OriginSpec prepended = OriginSpec::everywhere(o);
    for (const topo::EdgeId e : g.edges_of(o)) prepended.prepend[e] = 9;
    prepended.prepend[up.back()] = 60;
    specs.push_back(prepended);
    for (const OriginSpec& spec : specs) {
      expect_identical(compute_routes(g, spec), compute_routes_reference(g, spec), g);
    }
    ++checked;
  }
  EXPECT_GE(checked, 7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 31337u));

}  // namespace
}  // namespace bgpcmp::bgp
