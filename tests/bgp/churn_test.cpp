#include "bgpcmp/bgp/churn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

using topo::AsClass;
using topo::AsGraph;
using topo::LinkKind;

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

/// The golden every churn test pins: the engine's in-place table must be
/// byte-identical to a full reference rebuild under its own effective spec.
void expect_matches_rebuild(const ChurnEngine& eng, const AsGraph& g) {
  expect_identical(eng.table(),
                   compute_routes_reference(g, eng.effective_spec()), g);
}

/// Same hand-built textbook topology as propagation_test.cpp:
///
///        T1a ===== T1b          (Tier-1 peer mesh)
///        /  |        |
///      TRa  TRb     TRc         (transits: customers of Tier-1s)
///      /      |     /  |
///    EBa     EBb  EBb  EBc      (eyeballs; TRb and TRc both serve EBb)
///
/// TRa -- TRb peer; EBa -- EBb peer.
class ChurnTest : public ::testing::Test {
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

TEST_F(ChurnTest, ConstructionMatchesFullConverge) {
  const ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  expect_matches_rebuild(eng, g_);
  expect_identical(eng.table(), compute_routes(g_, eba_), g_);
}

TEST_F(ChurnTest, WithdrawReroutesAndAnnounceRestores) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const RouteTable before = eng.table();

  const ChurnEvent down[] = {ChurnEvent::withdraw(e_tra_eba_)};
  const ChurnStats st = eng.reconverge(down);
  EXPECT_EQ(st.changed_sessions, 1u);
  EXPECT_GT(st.changed_routes, 0u);
  expect_matches_rebuild(eng, g_);
  // EBa's only transit session is gone: TRa must fall back to a longer path.
  EXPECT_NE(eng.table().at(tra_).via_edge, e_tra_eba_);

  const ChurnEvent up[] = {ChurnEvent::announce(e_tra_eba_)};
  eng.reconverge(up);
  expect_matches_rebuild(eng, g_);
  expect_identical(eng.table(), before, g_);
}

TEST_F(ChurnTest, PrependShiftsAndClears) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const RouteTable before = eng.table();

  const ChurnEvent pre[] = {ChurnEvent::prepend_set(e_tra_eba_, 4)};
  eng.reconverge(pre);
  expect_matches_rebuild(eng, g_);
  EXPECT_EQ(eng.table().at(tra_).length, 5);

  const ChurnEvent clear[] = {ChurnEvent::prepend_set(e_tra_eba_, 0)};
  eng.reconverge(clear);
  expect_matches_rebuild(eng, g_);
  expect_identical(eng.table(), before, g_);
}

TEST_F(ChurnTest, SuppressMatchesSuppressedSpec) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const ChurnEvent ev[] = {ChurnEvent::suppress_edge(e_eba_ebb_)};
  eng.reconverge(ev);
  expect_matches_rebuild(eng, g_);
  OriginSpec want = OriginSpec::everywhere(eba_);
  want.suppress.insert(e_eba_ebb_);
  expect_identical(eng.table(), compute_routes_reference(g_, want), g_);
}

TEST_F(ChurnTest, LinkFlapDownsSingleLinkSessionAndTogglesBack) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const RouteTable before = eng.table();
  // The TRa session rides exactly one link; flapping it downs the session.
  const topo::LinkId l = g_.edge(e_tra_eba_).links.front();
  const ChurnEvent down[] = {ChurnEvent::link_flap(l)};
  eng.reconverge(down);
  EXPECT_TRUE(eng.effective_spec().suppress.contains(e_tra_eba_));
  expect_matches_rebuild(eng, g_);

  const ChurnEvent up[] = {ChurnEvent::link_flap(l)};
  eng.reconverge(up);
  expect_matches_rebuild(eng, g_);
  expect_identical(eng.table(), before, g_);
}

TEST_F(ChurnTest, FacilityOutageDownsEverySessionInTheCity) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const RouteTable before = eng.table();
  // Both EBa sessions (TRa transit, EBb peering) terminate in city 0: the
  // outage silences the whole announcement.
  const ChurnEvent out[] = {ChurnEvent::facility_outage(0)};
  eng.reconverge(out);
  expect_matches_rebuild(eng, g_);
  for (topo::AsIndex i = 0; i < g_.as_count(); ++i) {
    if (i == eba_) continue;
    EXPECT_FALSE(eng.table().reachable(i)) << g_.node(i).name;
  }
  const ChurnEvent back[] = {ChurnEvent::facility_outage(0)};
  eng.reconverge(back);
  expect_matches_rebuild(eng, g_);
  expect_identical(eng.table(), before, g_);
}

TEST_F(ChurnTest, BatchedMixedEventsConvergeOnce) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  const ChurnEvent batch[] = {
      ChurnEvent::prepend_set(e_tra_eba_, 2),
      ChurnEvent::suppress_edge(e_eba_ebb_),
  };
  const ChurnStats st = eng.reconverge(batch);
  EXPECT_EQ(st.events, 2u);
  EXPECT_EQ(st.changed_sessions, 2u);
  expect_matches_rebuild(eng, g_);
}

TEST_F(ChurnTest, EmptyAndNoOpBatchesTouchNothing) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  EXPECT_EQ(eng.reconverge({}).changed_routes, 0u);
  // Suppressing an already-suppressed session changes no session state.
  const ChurnEvent ev[] = {ChurnEvent::suppress_edge(e_eba_ebb_)};
  eng.reconverge(ev);
  const ChurnStats again = eng.reconverge(ev);
  EXPECT_EQ(again.changed_sessions, 0u);
  EXPECT_EQ(again.changed_routes, 0u);
  EXPECT_EQ(again.invalidated(), 0u);
  expect_matches_rebuild(eng, g_);
}

TEST_F(ChurnTest, ScopedAnnouncementInteractsWithLinkState) {
  // Scope EBa's prefix to its two sessions' first links, then flap the TRa
  // link: the scope loses that entry and only the peering announces.
  const topo::LinkId l_tra = g_.edge(e_tra_eba_).links.front();
  const topo::LinkId l_ebb = g_.edge(e_eba_ebb_).links.front();
  ChurnEngine eng{&g_, OriginSpec::scoped(eba_, {l_tra, l_ebb})};
  expect_matches_rebuild(eng, g_);
  const ChurnEvent down[] = {ChurnEvent::link_flap(l_tra)};
  eng.reconverge(down);
  expect_matches_rebuild(eng, g_);
  EXPECT_FALSE(eng.effective_spec().announces_on(g_, e_tra_eba_));
  const ChurnEvent up[] = {ChurnEvent::link_flap(l_tra)};
  eng.reconverge(up);
  expect_matches_rebuild(eng, g_);
  EXPECT_TRUE(eng.effective_spec().announces_on(g_, e_tra_eba_));
}

TEST_F(ChurnTest, NegativePrependEventThrows) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  ScopedCheckThrows guard;
  const ChurnEvent bad[] = {ChurnEvent::prepend_set(e_tra_eba_, -3)};
  EXPECT_THROW(eng.reconverge(bad), CheckError);
}

TEST_F(ChurnTest, EventOnForeignEdgeThrows) {
  ChurnEngine eng{&g_, OriginSpec::everywhere(eba_)};
  ScopedCheckThrows guard;
  // A session event must touch an origin session; the TRc--EBc edge is not
  // one of EBa's.
  const auto foreign = g_.find_edge(trc_, ebc_);
  ASSERT_TRUE(foreign);
  const ChurnEvent bad[] = {ChurnEvent::withdraw(*foreign)};
  EXPECT_THROW(eng.reconverge(bad), CheckError);
}

// --- Satellite regression: select_best narrowing (uint32 -> uint16). -------

TEST(ChurnNarrowing, PathLengthAtUint16BoundarySurvives) {
  // O --customer--> P: a prepend of 65534 makes P's path length exactly
  // 65535, the last value BestRoute::length can hold.
  AsGraph g;
  const auto o = g.add_as(Asn{1}, AsClass::Content, "O", {0});
  const auto p = g.add_as(Asn{2}, AsClass::Transit, "P", {0});
  const auto e = g.connect_transit(p, o);
  g.add_link(e, 0, LinkKind::Transit, GigabitsPerSecond{1});
  OriginSpec spec = OriginSpec::everywhere(o);
  spec.prepend[e] = 65534;
  const auto table = compute_routes(g, spec);
  EXPECT_EQ(table.at(p).length, 65535);
  expect_identical(table, compute_routes_reference(g, spec), g);
}

TEST(ChurnNarrowing, PathLengthPastUint16Throws) {
  // One more prepend pushes the relaxation length to 65536; the narrowing
  // to BestRoute::length must fail loudly instead of wrapping to 0.
  AsGraph g;
  const auto o = g.add_as(Asn{1}, AsClass::Content, "O", {0});
  const auto p = g.add_as(Asn{2}, AsClass::Transit, "P", {0});
  const auto e = g.connect_transit(p, o);
  g.add_link(e, 0, LinkKind::Transit, GigabitsPerSecond{1});
  OriginSpec spec = OriginSpec::everywhere(o);
  spec.prepend[e] = 65535;
  ScopedCheckThrows guard;
  EXPECT_THROW(compute_routes(g, spec), CheckError);
  EXPECT_THROW(compute_routes_reference(g, spec), CheckError);
  (void)p;
}

// --- Satellite regression: negative prepend counts are rejected. -----------

TEST(ChurnNegativePrepend, BothPropagationEntryPointsThrow) {
  AsGraph g;
  const auto o = g.add_as(Asn{1}, AsClass::Content, "O", {0});
  const auto p = g.add_as(Asn{2}, AsClass::Transit, "P", {0});
  const auto e = g.connect_transit(p, o);
  g.add_link(e, 0, LinkKind::Transit, GigabitsPerSecond{1});
  OriginSpec spec = OriginSpec::everywhere(o);
  spec.prepend[e] = -1;  // would underflow 1 + prepend into a huge length
  ScopedCheckThrows guard;
  EXPECT_THROW(compute_routes(g, spec), CheckError);
  EXPECT_THROW(compute_routes_reference(g, spec), CheckError);
  EXPECT_THROW((ChurnEngine{&g, spec}), CheckError);
}

// --- Worklist re-entry semantics (stage 3's provider re-queue path). --------

TEST(Worklist, FifoOrderAndDedupWhileQueued) {
  detail::Worklist wl{4};
  wl.push(2);
  wl.push(0);
  wl.push(2);  // already queued: no-op
  wl.push(3);
  EXPECT_EQ(wl.pop(), 2u);
  EXPECT_EQ(wl.pop(), 0u);
  EXPECT_EQ(wl.pop(), 3u);
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, PoppedNodeMayReEnter) {
  // Stage 3 re-queues a provider-routed AS whenever its route improves
  // again, so a pop must clear membership and allow a later push.
  detail::Worklist wl{3};
  wl.push(1);
  EXPECT_EQ(wl.pop(), 1u);
  EXPECT_TRUE(wl.empty());
  wl.push(1);  // re-entry after pop
  EXPECT_FALSE(wl.empty());
  EXPECT_EQ(wl.pop(), 1u);
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, DrainedWorklistIsReusable) {
  // The churn engine keeps one worklist across reconverge() calls; draining
  // it must reset it completely.
  detail::Worklist wl{5};
  for (int round = 0; round < 3; ++round) {
    wl.push(4);
    wl.push(1);
    EXPECT_EQ(wl.pop(), 4u);
    EXPECT_EQ(wl.pop(), 1u);
    EXPECT_TRUE(wl.empty());
  }
}

// --- Randomized event-stream equivalence over generated Internets. ----------

topo::Internet property_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 5;
  cfg.transit_count = 14;
  cfg.eyeball_count = 30;
  cfg.stub_count = 15;
  return topo::build_internet(cfg);
}

/// Draw one random event against `origin`'s sessions: announcement moves
/// (withdraw / re-announce / prepend / suppress) plus link flaps and facility
/// outages on the links those sessions ride.
ChurnEvent random_event(std::mt19937_64& rng, const AsGraph& g,
                        topo::AsIndex origin) {
  const auto edges = g.edge_index().edges_of(origin);
  const topo::EdgeId e = edges[rng() % edges.size()];
  switch (rng() % 6) {
    case 0: return ChurnEvent::withdraw(e);
    case 1: return ChurnEvent::announce(e);
    case 2: return ChurnEvent::prepend_set(e, static_cast<int>(rng() % 5));
    case 3: return ChurnEvent::suppress_edge(e);
    case 4: {
      const auto& links = g.edge(e).links;
      if (links.empty()) return ChurnEvent::withdraw(e);
      return ChurnEvent::link_flap(links[rng() % links.size()]);
    }
    default: {
      const auto& links = g.edge(e).links;
      if (links.empty()) return ChurnEvent::suppress_edge(e);
      return ChurnEvent::facility_outage(g.link(links[rng() % links.size()]).city);
    }
  }
}

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, RandomizedStreamsMatchFullRebuild) {
  const auto net = property_internet(GetParam());
  std::mt19937_64 rng{GetParam() * 7919 + 17};
  // A handful of origins per world, mixing eyeballs (deep) with transit.
  std::vector<topo::AsIndex> origins = {net.eyeballs[0],
                                        net.eyeballs[net.eyeballs.size() / 2],
                                        net.eyeballs.back()};
  for (const topo::AsIndex origin : origins) {
    ChurnEngine eng{&net.graph, OriginSpec::everywhere(origin)};
    for (int batch = 0; batch < 12; ++batch) {
      std::vector<ChurnEvent> events;
      const std::size_t count = 1 + rng() % 4;  // mixed single/multi batches
      for (std::size_t i = 0; i < count; ++i) {
        events.push_back(random_event(rng, net.graph, origin));
      }
      eng.reconverge(events);
      expect_matches_rebuild(eng, net.graph);
    }
  }
}

TEST_P(ChurnProperty, StatsStayWithinTheTouchedFrontier) {
  const auto net = property_internet(GetParam());
  const topo::AsIndex origin = net.eyeballs[1];
  ChurnEngine eng{&net.graph, OriginSpec::everywhere(origin)};
  const auto edges = net.graph.edge_index().edges_of(origin);
  ASSERT_FALSE(edges.empty());
  const ChurnEvent ev[] = {ChurnEvent::prepend_set(edges.front(), 1)};
  const ChurnStats st = eng.reconverge(ev);
  EXPECT_EQ(st.changed_sessions, 1u);
  // A single-session prepend must not invalidate the whole world's states.
  EXPECT_LT(st.invalidated(), 3 * net.graph.as_count());
  expect_matches_rebuild(eng, net.graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 31337u));

// --- RouteCache wiring. ------------------------------------------------------

TEST(ChurnRouteCache, ReconvergeUpdatesWarmedSlot) {
  const auto net = property_internet(7);
  const topo::AsIndex origin = net.eyeballs[0];
  exec::ThreadPool pool{1};
  RouteCache cache{&net.graph};
  const topo::AsIndex warm_list[] = {origin};
  cache.warm(warm_list, pool);

  const auto edges = net.graph.edge_index().edges_of(origin);
  const std::vector<OriginChurn> wave = {
      OriginChurn{origin, {ChurnEvent::withdraw(edges.front())}}};
  const std::vector<ChurnStats> st = cache.reconverge(wave, pool);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].changed_sessions, 1u);

  OriginSpec want = OriginSpec::everywhere(origin);
  want.suppress.insert(edges.front());
  const RouteTable* found = cache.find(origin);
  ASSERT_NE(found, nullptr);
  expect_identical(*found, compute_routes_reference(net.graph, want), net.graph);
}

TEST(ChurnRouteCache, ReconvergeRequiresWarmedOrigin) {
  const auto net = property_internet(7);
  exec::ThreadPool pool{1};
  RouteCache cache{&net.graph};
  ScopedCheckThrows guard;
  const std::vector<OriginChurn> wave = {OriginChurn{net.eyeballs[0], {}}};
  EXPECT_THROW(cache.reconverge(wave, pool), CheckError);
}

TEST(ChurnRouteCache, ParallelWaveMatchesSerialAtAnyWidth) {
  const auto net = property_internet(42);
  std::vector<topo::AsIndex> origins = {net.eyeballs[0], net.eyeballs[3],
                                        net.eyeballs[6], net.eyeballs[9]};
  std::vector<OriginChurn> wave;
  for (const topo::AsIndex o : origins) {
    const auto edges = net.graph.edge_index().edges_of(o);
    wave.push_back(OriginChurn{
        o,
        {ChurnEvent::withdraw(edges.front()),
         ChurnEvent::prepend_set(edges.back(), 2)}});
  }

  // The serial reference: one standalone engine per origin.
  std::vector<std::unique_ptr<ChurnEngine>> serial;
  std::vector<ChurnStats> serial_stats;
  for (const OriginChurn& oc : wave) {
    serial.push_back(
        std::make_unique<ChurnEngine>(&net.graph, OriginSpec::everywhere(oc.origin)));
    serial_stats.push_back(serial.back()->reconverge(oc.events));
  }

  for (const int threads : {1, 2, 8}) {
    exec::ThreadPool pool{threads};
    RouteCache parallel{&net.graph};
    parallel.warm(origins, pool);
    const auto stats = parallel.reconverge(wave, pool);
    ASSERT_EQ(stats.size(), serial_stats.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      EXPECT_EQ(stats[i].events, serial_stats[i].events);
      EXPECT_EQ(stats[i].changed_sessions, serial_stats[i].changed_sessions);
      EXPECT_EQ(stats[i].invalidated_customer, serial_stats[i].invalidated_customer);
      EXPECT_EQ(stats[i].invalidated_peer, serial_stats[i].invalidated_peer);
      EXPECT_EQ(stats[i].invalidated_provider, serial_stats[i].invalidated_provider);
      EXPECT_EQ(stats[i].worklist_pops, serial_stats[i].worklist_pops);
      EXPECT_EQ(stats[i].changed_routes, serial_stats[i].changed_routes);
      expect_identical(*parallel.find(wave[i].origin), serial[i]->table(), net.graph);
    }
  }
}

TEST(ChurnRouteCache, WaveRejectsRepeatedOrigin) {
  const auto net = property_internet(7);
  const topo::AsIndex origin = net.eyeballs[0];
  exec::ThreadPool pool{2};
  RouteCache cache{&net.graph};
  const topo::AsIndex warm_list[] = {origin};
  cache.warm(warm_list, pool);
  const std::vector<OriginChurn> wave = {OriginChurn{origin, {}},
                                         OriginChurn{origin, {}}};
  ScopedCheckThrows guard;
  EXPECT_THROW(cache.reconverge(wave, pool), CheckError);
}

}  // namespace
}  // namespace bgpcmp::bgp
