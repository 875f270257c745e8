#include "bgpcmp/bgp/rib.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;

/// The edge-by-edge Adj-RIB-in walk candidate_routes_at used before it read
/// the grouped CSR index: every incident edge in insertion order, roles from
/// AsEdge. Kept here as the golden the production walk is pinned against.
std::vector<CandidateRoute> legacy_candidate_routes_at(const topo::AsGraph& graph,
                                                       const RouteTable& table,
                                                       const OriginSpec& origin_spec,
                                                       topo::AsIndex viewer) {
  std::vector<CandidateRoute> out;
  for (const topo::EdgeId e : graph.edges_of(viewer)) {
    const topo::AsIndex nb = graph.other_end(e, viewer);
    CandidateRoute cand;
    cand.neighbor = nb;
    cand.edge = e;
    cand.neighbor_role = graph.role_of_other(e, viewer);
    if (nb == table.origin()) {
      if (!origin_spec.announces_on(graph, e)) continue;
      cand.neighbor_class = RouteClass::Origin;
      cand.length = static_cast<std::uint16_t>(1 + origin_spec.prepend_on(e));
      cand.as_path = {nb};
      out.push_back(std::move(cand));
      continue;
    }
    const BestRoute& nbest = table.at(nb);
    if (!nbest.reachable() || nbest.next_hop == viewer) continue;
    const bool exports = graph.role_of_other(e, nb) == topo::NeighborRole::Customer ||
                         nbest.cls == RouteClass::Customer;
    if (!exports) continue;
    auto path = table.path(nb);
    if (std::find(path.begin(), path.end(), viewer) != path.end()) continue;
    cand.neighbor_class = nbest.cls;
    cand.length = static_cast<std::uint16_t>(nbest.length + 1);
    cand.as_path = std::move(path);
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(), [&](const CandidateRoute& a, const CandidateRoute& b) {
    const Asn x = graph.node(a.neighbor).asn;
    const Asn y = graph.node(b.neighbor).asn;
    return x != y ? x < y : a.neighbor < b.neighbor;
  });
  return out;
}

void expect_same_candidates(const std::vector<CandidateRoute>& got,
                            const std::vector<CandidateRoute>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].neighbor, want[i].neighbor) << i;
    EXPECT_EQ(got[i].edge, want[i].edge) << i;
    EXPECT_EQ(got[i].neighbor_role, want[i].neighbor_role) << i;
    EXPECT_EQ(got[i].neighbor_class, want[i].neighbor_class) << i;
    EXPECT_EQ(got[i].length, want[i].length) << i;
    EXPECT_EQ(got[i].as_path, want[i].as_path) << i;
  }
}

/// Content provider CP multihomed to T1a+T1b (transit), peering with TRa and
/// directly with eyeball EBa. Origin under test: EBa's prefix.
///
///    T1a ==== T1b
///    /   \   /
///  TRa    CP
///   |    /  \.
///  EBa--+    (CP peers TRa, PNI with EBa)
class RibTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1a_ = g_.add_as(Asn{10}, AsClass::Tier1, "T1a", {0, 1});
    t1b_ = g_.add_as(Asn{11}, AsClass::Tier1, "T1b", {0, 1});
    tra_ = g_.add_as(Asn{20}, AsClass::Transit, "TRa", {0, 1});
    eba_ = g_.add_as(Asn{30}, AsClass::Eyeball, "EBa", {0});
    cp_ = g_.add_as(Asn{60001}, AsClass::Content, "CP", {0, 1});

    auto link = [&](topo::EdgeId e, topo::CityId c, topo::LinkKind k) {
      g_.add_link(e, c, k, GigabitsPerSecond{100});
    };
    link(g_.connect_peering(t1a_, t1b_), 0, topo::LinkKind::PrivatePeering);
    link(g_.connect_transit(t1a_, tra_), 0, topo::LinkKind::Transit);
    link(g_.connect_transit(t1a_, cp_), 0, topo::LinkKind::Transit);
    link(g_.connect_transit(t1b_, cp_), 1, topo::LinkKind::Transit);
    link(g_.connect_transit(tra_, eba_), 0, topo::LinkKind::Transit);
    link(g_.connect_peering(tra_, cp_), 0, topo::LinkKind::PublicPeering);
    link(g_.connect_peering(eba_, cp_), 0, topo::LinkKind::PrivatePeering);
  }

  topo::AsGraph g_;
  topo::AsIndex t1a_, t1b_, tra_, eba_, cp_;
};

TEST_F(RibTest, AllExportingNeighborsAppear) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  // CP hears EBa's prefix from: EBa (direct peer), TRa (customer route,
  // exported to peers), T1a (transit provider), T1b (transit provider).
  ASSERT_EQ(candidates.size(), 4u);
}

TEST_F(RibTest, DirectRouteHasOriginClass) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  bool found = false;
  for (const auto& c : candidates) {
    if (c.neighbor == eba_) {
      found = true;
      EXPECT_EQ(c.neighbor_class, RouteClass::Origin);
      EXPECT_EQ(c.length, 1);
      EXPECT_EQ(c.as_path, std::vector<topo::AsIndex>{eba_});
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RibTest, PathsEndAtOrigin) {
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, cp_)) {
    ASSERT_FALSE(c.as_path.empty());
    EXPECT_EQ(c.as_path.front(), c.neighbor);
    EXPECT_EQ(c.as_path.back(), eba_);
    EXPECT_EQ(c.length, c.as_path.size());
  }
}

TEST_F(RibTest, LengthsMatchNeighborTable) {
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, cp_)) {
    if (c.neighbor == eba_) continue;
    EXPECT_EQ(c.length, table.at(c.neighbor).length + 1);
  }
}

TEST_F(RibTest, PeersWithholdNonCustomerRoutes) {
  // Origin = CP itself. TRa's route to CP is a *peer* route, so TRa would
  // never export it to another peer/provider; but the viewer here is EBa,
  // whose only CP route should be the direct PNI plus its provider TRa...
  // which must NOT offer its peer route.
  const auto table = compute_routes(g_, cp_);
  const auto at_eba = candidate_routes_at(g_, table, eba_);
  // EBa hears: CP directly (peer session), and TRa (TRa is EBa's *provider*,
  // so TRa exports everything it uses, including its peer route).
  ASSERT_EQ(at_eba.size(), 2u);
  // Flip side: at T1a, TRa must not offer its peer route to CP (T1a is TRa's
  // provider; peer-learned routes are not exported upward).
  const auto at_t1a = candidate_routes_at(g_, table, t1a_);
  for (const auto& c : at_t1a) {
    EXPECT_NE(c.neighbor, tra_);
  }
}

TEST_F(RibTest, SplitHorizonExcludesRoutesThroughViewer) {
  // Origin = EBa. T1b's best route to EBa runs through T1a (peer), not
  // through CP; but if we ask for candidates at T1a, T1b's route must not be
  // offered if it runs via T1a itself.
  const auto table = compute_routes(g_, eba_);
  for (const auto& c : candidate_routes_at(g_, table, t1a_)) {
    for (const auto as : c.as_path) {
      EXPECT_NE(as, t1a_);
    }
  }
}

TEST_F(RibTest, CandidatesSortedByNeighborAsn) {
  const auto table = compute_routes(g_, eba_);
  const auto candidates = candidate_routes_at(g_, table, cp_);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(g_.node(candidates[i - 1].neighbor).asn,
              g_.node(candidates[i].neighbor).asn);
  }
}

TEST_F(RibTest, ScopedOriginFiltersDirectCandidate) {
  // Announce EBa's prefix only on the TRa session: CP must not list the
  // direct EBa candidate anymore.
  const auto eba_tra = g_.find_edge(tra_, eba_);
  ASSERT_TRUE(eba_tra);
  const auto spec = OriginSpec::scoped(eba_, g_.edge(*eba_tra).links);
  const auto table = compute_routes(g_, spec);
  const auto candidates = candidate_routes_at(g_, table, spec, cp_);
  for (const auto& c : candidates) {
    EXPECT_NE(c.neighbor, eba_);
  }
  EXPECT_FALSE(candidates.empty());
}

TEST_F(RibTest, RouteDiversityOnGeneratedInternet) {
  // The paper: "the PoP serving the client has at least three routes" for
  // most clients. Verify the content provider in a generated world hears
  // multiple routes for most eyeball prefixes.
  topo::InternetConfig cfg;
  cfg.seed = 77;
  cfg.tier1_count = 6;
  cfg.transit_count = 18;
  cfg.eyeball_count = 40;
  cfg.stub_count = 10;
  auto net = topo::build_internet(cfg);
  // Use a generated transit as a stand-in multi-homed viewer.
  const topo::AsIndex viewer = net.transits.front();
  int multi = 0;
  int total = 0;
  for (const auto eb : net.eyeballs) {
    const auto table = compute_routes(net.graph, eb);
    const auto candidates = candidate_routes_at(net.graph, table, viewer);
    ++total;
    if (candidates.size() >= 2) ++multi;
  }
  EXPECT_GT(multi, total / 2);
}

TEST(RibDifferential, MatchesLegacyWalkForEveryEyeballOrigin) {
  // Default 1x world with the content provider attached: at the provider (a
  // multi-homed viewer with transit and many peers) and at a Tier-1, every
  // eyeball origin's candidate list must equal the legacy walk's, field by
  // field and in order.
  topo::Internet net = topo::build_internet(topo::InternetConfig{});
  const auto provider = cdn::ContentProvider::attach(net, cdn::ProviderConfig{});
  ASSERT_FALSE(net.tier1s.empty());
  const topo::AsIndex viewers[] = {provider.as_index(), net.tier1s.front()};
  std::size_t heard = 0;
  for (const topo::AsIndex eb : net.eyeballs) {
    const OriginSpec spec = OriginSpec::everywhere(eb);
    const auto table = compute_routes(net.graph, spec);
    for (const topo::AsIndex viewer : viewers) {
      const auto got = candidate_routes_at(net.graph, table, spec, viewer);
      expect_same_candidates(got, legacy_candidate_routes_at(net.graph, table, spec, viewer));
      heard += got.size();
    }
  }
  EXPECT_GT(heard, 2 * net.eyeballs.size());
}

TEST(RibDifferential, MatchesLegacyWalkUnderScopedOrigin) {
  topo::Internet net = topo::build_internet(topo::InternetConfig{});
  const auto provider = cdn::ContentProvider::attach(net, cdn::ProviderConfig{});
  int checked = 0;
  for (std::size_t k = 0; k < net.eyeballs.size(); k += 11) {
    const topo::AsIndex eb = net.eyeballs[k];
    const auto direct = net.graph.find_edge(provider.as_index(), eb);
    if (!direct) continue;
    OriginSpec spec = OriginSpec::scoped(eb, net.graph.edge(*direct).links);
    spec.prepend[*direct] = 3;
    const auto table = compute_routes(net.graph, spec);
    expect_same_candidates(
        candidate_routes_at(net.graph, table, spec, provider.as_index()),
        legacy_candidate_routes_at(net.graph, table, spec, provider.as_index()));
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

}  // namespace
}  // namespace bgpcmp::bgp
