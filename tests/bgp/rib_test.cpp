#include "bgpcmp/bgp/rib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>

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

bool same_candidates(const std::vector<CandidateRoute>& got,
                     const std::vector<CandidateRoute>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const CandidateRoute& a = got[i];
    const CandidateRoute& b = want[i];
    if (a.neighbor != b.neighbor || a.edge != b.edge ||
        a.neighbor_role != b.neighbor_role || a.neighbor_class != b.neighbor_class ||
        a.length != b.length || a.as_path != b.as_path) {
      return false;
    }
  }
  return true;
}

/// Differential of adj_rib_in against the reference propagation read through
/// candidate_routes_at: counts (origin spec, viewer) cases whose candidate
/// lists differ in any field, as_path included, and names the first one.
struct AdjRibInDiff {
  std::size_t cases = 0;
  std::size_t heard = 0;
  std::size_t mismatches = 0;
  std::string first;

  void check(const topo::AsGraph& g, const OriginSpec& spec,
             std::span<const topo::AsIndex> viewers, const std::string& what) {
    const RouteTable table = compute_routes_reference(g, spec);
    for (const topo::AsIndex viewer : viewers) {
      const auto got = adj_rib_in(g, spec, viewer);
      const auto want = candidate_routes_at(g, table, spec, viewer);
      ++cases;
      heard += want.size();
      if (same_candidates(got, want)) continue;
      if (mismatches++ == 0) {
        std::ostringstream os;
        os << what << ": origin " << spec.origin << " viewer " << viewer << " got "
           << got.size() << " candidates, want " << want.size();
        first = os.str();
      }
    }
  }
};

/// The four origin specs the differential covers: announced everywhere;
/// scoped to one session; one transit and one peer session suppressed; every
/// session prepended 9 and one 60. Sessions are picked from the origin's own
/// edges (its first provider edge where it has one).
std::vector<std::pair<std::string, OriginSpec>> spec_variants(const topo::AsGraph& g,
                                                              topo::AsIndex o) {
  std::vector<std::pair<std::string, OriginSpec>> specs;
  specs.emplace_back("everywhere", OriginSpec::everywhere(o));
  const topo::EdgeIndex& idx = g.edge_index();
  const auto edges = idx.edges_of(o);
  if (edges.empty()) return specs;
  const auto up = idx.up_edges(o);
  const auto peers = idx.peer_edges(o);
  const topo::EdgeId first = up.empty() ? edges.front() : up.front();
  const topo::EdgeId last = up.empty() ? edges.back() : up.back();
  specs.emplace_back("scoped", OriginSpec::scoped(o, g.edge(first).links));
  OriginSpec suppressed = OriginSpec::everywhere(o);
  suppressed.suppress.insert(first);
  if (!peers.empty()) suppressed.suppress.insert(peers.front());
  specs.emplace_back("suppressed", suppressed);
  OriginSpec prepended = OriginSpec::everywhere(o);
  for (const topo::EdgeId e : edges) prepended.prepend[e] = 9;
  prepended.prepend[last] = 60;
  specs.emplace_back("prepended", prepended);
  return specs;
}

/// Every origin of `g` under every spec variant, at each viewer.
AdjRibInDiff adj_rib_in_over_every_origin(const topo::AsGraph& g,
                                          std::span<const topo::AsIndex> viewers) {
  AdjRibInDiff diff;
  for (topo::AsIndex o = 0; o < g.as_count(); ++o) {
    for (const auto& [what, spec] : spec_variants(g, o)) diff.check(g, spec, viewers, what);
  }
  return diff;
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

TEST_F(RibTest, AdjRibInViewerAdjacentToOrigin) {
  // CP has a PNI with EBa: the direct Origin candidate, and all four routes
  // of AllExportingNeighborsAppear. Scoped to the TRa session, the direct
  // candidate goes and the rest stays.
  const OriginSpec everywhere = OriginSpec::everywhere(eba_);
  const auto all = adj_rib_in(g_, everywhere, cp_);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](const CandidateRoute& c) {
    return c.neighbor == eba_ && c.neighbor_class == RouteClass::Origin;
  }));
  EXPECT_TRUE(same_candidates(all, candidate_routes_at(g_, compute_routes(g_, everywhere),
                                                       everywhere, cp_)));
  const auto eba_tra = g_.find_edge(tra_, eba_);
  ASSERT_TRUE(eba_tra);
  const OriginSpec scoped = OriginSpec::scoped(eba_, g_.edge(*eba_tra).links);
  const auto some = adj_rib_in(g_, scoped, cp_);
  EXPECT_EQ(some.size(), 3u);
  for (const auto& c : some) EXPECT_NE(c.neighbor, eba_);
  EXPECT_TRUE(
      same_candidates(some, candidate_routes_at(g_, compute_routes(g_, scoped), scoped, cp_)));
}

TEST_F(RibTest, AdjRibInViewerInsideOriginCone) {
  // TRa is EBa's provider, so it sits in EBa's up-cone. Its provider T1a
  // selects the customer route through TRa: split horizon drops it, and TRa
  // hears only EBa itself.
  const OriginSpec spec = OriginSpec::everywhere(eba_);
  const auto heard = adj_rib_in(g_, spec, tra_);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard.front().neighbor, eba_);
  EXPECT_TRUE(
      same_candidates(heard, candidate_routes_at(g_, compute_routes(g_, spec), spec, tra_)));
}

TEST_F(RibTest, AdjRibInViewerWithNoRoute) {
  // Suppressed on every session, EBa's prefix reaches no one; and the origin
  // never hears its own prefix.
  OriginSpec silent = OriginSpec::everywhere(eba_);
  for (const topo::EdgeId e : g_.edges_of(eba_)) silent.suppress.insert(e);
  for (const topo::AsIndex viewer : {t1a_, t1b_, tra_, cp_, eba_}) {
    EXPECT_TRUE(adj_rib_in(g_, silent, viewer).empty()) << viewer;
  }
  EXPECT_TRUE(adj_rib_in(g_, OriginSpec::everywhere(eba_), eba_).empty());
}

TEST_F(RibTest, AdjRibInOriginWithoutProvider) {
  // T1a has no provider: its prefix has an empty up-cone, so every route is
  // a direct session, a peer hop or a provider pull.
  const OriginSpec spec = OriginSpec::everywhere(t1a_);
  const RouteTable table = compute_routes(g_, spec);
  for (const topo::AsIndex viewer : {t1b_, tra_, eba_, cp_}) {
    const auto heard = adj_rib_in(g_, spec, viewer);
    EXPECT_FALSE(heard.empty()) << viewer;
    EXPECT_TRUE(same_candidates(heard, candidate_routes_at(g_, table, spec, viewer)))
        << viewer;
  }
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

TEST(RibDifferential, AdjRibInMatchesReferenceOnDuplicateAsnGraphs) {
  // PropagationTieBreak's graph: A and B share ASN 500 under T, so T hears
  // two candidates with one ASN and the (ASN, index) order decides. A second
  // copy hangs a viewer V under both A and B and gives it a peer with ASN
  // 500 too.
  topo::AsGraph g;
  const topo::AsIndex o = g.add_as(Asn{700}, AsClass::Eyeball, "O", {0});
  const topo::AsIndex a = g.add_as(Asn{500}, AsClass::Transit, "A", {0});
  const topo::AsIndex b = g.add_as(Asn{500}, AsClass::Transit, "B", {0});
  const topo::AsIndex t = g.add_as(Asn{100}, AsClass::Tier1, "T", {0});
  g.connect_transit(b, o);
  g.connect_transit(a, o);
  g.connect_transit(t, a);
  g.connect_transit(t, b);
  AdjRibInDiff diff;
  std::vector<topo::AsIndex> viewers(g.as_count());
  for (topo::AsIndex i = 0; i < g.as_count(); ++i) viewers[i] = i;
  for (topo::AsIndex origin = 0; origin < g.as_count(); ++origin) {
    for (const auto& [what, spec] : spec_variants(g, origin)) diff.check(g, spec, viewers, what);
  }
  const auto at_t = adj_rib_in(g, OriginSpec::everywhere(o), t);
  ASSERT_EQ(at_t.size(), 2u);
  EXPECT_EQ(at_t[0].neighbor, a);
  EXPECT_EQ(at_t[1].neighbor, b);

  const topo::AsIndex v = g.add_as(Asn{800}, AsClass::Eyeball, "V", {0});
  const topo::AsIndex p = g.add_as(Asn{500}, AsClass::Eyeball, "P", {0});
  g.connect_transit(a, v);
  g.connect_transit(b, v);
  g.connect_peering(v, p);
  g.connect_transit(p, o);
  viewers.push_back(v);
  viewers.push_back(p);
  for (topo::AsIndex origin = 0; origin < g.as_count(); ++origin) {
    for (const auto& [what, spec] : spec_variants(g, origin)) diff.check(g, spec, viewers, what);
  }
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
  EXPECT_GT(diff.heard, diff.cases / 2);
}

/// The three viewers of the generated-world differentials: the provider AS
/// (transit plus many peers), a Tier-1 (no provider) and an eyeball (deep in
/// the hierarchy, so its ancestors need peer and provider routes).
std::vector<topo::AsIndex> generated_viewers(const topo::Internet& net,
                                             const cdn::ContentProvider& provider) {
  return {provider.as_index(), net.tier1s.front(), net.eyeballs.front()};
}

TEST(RibDifferential, AdjRibInMatchesReferenceForEveryOriginAt1x) {
  topo::Internet net = topo::build_internet(topo::InternetConfig{});
  const auto provider = cdn::ContentProvider::attach(net, cdn::ProviderConfig{});
  const auto viewers = generated_viewers(net, provider);
  const AdjRibInDiff diff = adj_rib_in_over_every_origin(net.graph, viewers);
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
  EXPECT_EQ(diff.cases, 4 * 3 * net.graph.as_count());
  EXPECT_GT(diff.heard, diff.cases);
}

TEST(RibDifferential, AdjRibInMatchesReferenceForEveryOriginAt4x) {
  topo::InternetConfig cfg;
  cfg.tier1_count *= 4;
  cfg.transit_count *= 4;
  cfg.eyeball_count *= 4;
  cfg.stub_count *= 4;
  topo::Internet net = topo::build_internet(cfg);
  const auto provider = cdn::ContentProvider::attach(net, cdn::ProviderConfig{});
  const auto viewers = generated_viewers(net, provider);
  const AdjRibInDiff diff = adj_rib_in_over_every_origin(net.graph, viewers);
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
  EXPECT_EQ(diff.cases, 4 * 3 * net.graph.as_count());
  EXPECT_GT(diff.heard, diff.cases);
}

}  // namespace
}  // namespace bgpcmp::bgp
