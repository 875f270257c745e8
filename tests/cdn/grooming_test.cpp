#include "bgpcmp/cdn/grooming.h"

#include <gtest/gtest.h>

#include "bgpcmp/bgp/churn.h"
#include "bgpcmp/bgp/propagation.h"
#include "../testutil.h"

namespace bgpcmp::cdn {
namespace {

/// A sparser-peering scenario so grooming has something to fix.
const core::Scenario& sparse_scenario() {
  static const auto scenario = [] {
    auto cfg = test::small_scenario_config(3);
    cfg.provider.pni_eyeball_fraction = 0.3;
    cfg.provider.ixp_peer_prob = 0.25;
    cfg.provider.public_session_density = 0.3;
    cfg.provider.transit_session_pops = 4;
    return core::Scenario::make(cfg);
  }();
  return *scenario;
}

class GroomingTest : public ::testing::Test {
 protected:
  GroomingConfig quick_config() {
    GroomingConfig cfg;
    cfg.sample_clients = 150;
    cfg.max_iterations = 5;
    cfg.badness_threshold_ms = 10.0;
    return cfg;
  }
};

TEST_F(GroomingTest, ReportsBaselineAndIterations) {
  const auto& sc = sparse_scenario();
  AnycastCdn cdn{&sc.internet, &sc.provider};
  AnycastGroomer groomer{&cdn, &sc.latency, &sc.clients, quick_config()};
  const auto report = groomer.groom();
  ASSERT_FALSE(report.mean_gap_by_iteration.empty());
  EXPECT_EQ(report.mean_gap_by_iteration.size(), report.steps.size() + 1);
}

TEST_F(GroomingTest, GroomingDoesNotWorsenTheMeanGap) {
  const auto& sc = sparse_scenario();
  AnycastCdn cdn{&sc.internet, &sc.provider};
  AnycastGroomer groomer{&cdn, &sc.latency, &sc.clients, quick_config()};
  const auto report = groomer.groom();
  if (report.steps.empty()) GTEST_SKIP() << "nothing to groom in this world";
  EXPECT_LE(report.mean_gap_by_iteration.back(),
            report.mean_gap_by_iteration.front() + 1.0);
}

TEST_F(GroomingTest, StepsPrependOnRealSessions) {
  const auto& sc = sparse_scenario();
  AnycastCdn cdn{&sc.internet, &sc.provider};
  AnycastGroomer groomer{&cdn, &sc.latency, &sc.clients, quick_config()};
  const auto report = groomer.groom();
  for (const auto& step : report.steps) {
    const auto& edge = sc.internet.graph.edge(step.edge);
    EXPECT_TRUE(edge.a == sc.provider.as_index() || edge.b == sc.provider.as_index());
    if (!step.reverted && !step.withdrawn) {
      EXPECT_GT(step.total_prepend, 0);
    }
    EXPECT_GE(step.weighted_gap_ms, quick_config().badness_threshold_ms);
  }
  // The groomed spec retains the prepends of every surviving prepend step and
  // the withdrawals of every surviving withdraw step.
  int total = 0;
  for (const auto& [edge, n] : cdn.anycast_spec().prepend) total += n;
  int step_total = 0;
  std::size_t withdrawals = 0;
  for (const auto& step : report.steps) {
    if (step.reverted) continue;
    if (step.withdrawn) {
      ++withdrawals;
    } else {
      step_total += quick_config().prepend_step;
    }
  }
  // A surviving withdrawal removes any earlier prepend on that edge.
  EXPECT_LE(total, step_total);
  EXPECT_EQ(cdn.anycast_spec().suppress.size(), withdrawals);
}

TEST_F(GroomingTest, DeterministicAcrossRuns) {
  const auto& sc = sparse_scenario();
  AnycastCdn cdn_a{&sc.internet, &sc.provider};
  AnycastCdn cdn_b{&sc.internet, &sc.provider};
  AnycastGroomer ga{&cdn_a, &sc.latency, &sc.clients, quick_config()};
  AnycastGroomer gb{&cdn_b, &sc.latency, &sc.clients, quick_config()};
  const auto ra = ga.groom();
  const auto rb = gb.groom();
  ASSERT_EQ(ra.steps.size(), rb.steps.size());
  for (std::size_t i = 0; i < ra.steps.size(); ++i) {
    EXPECT_EQ(ra.steps[i].edge, rb.steps[i].edge);
  }
  EXPECT_EQ(ra.mean_gap_by_iteration, rb.mean_gap_by_iteration);
}

TEST_F(GroomingTest, ChurnEventsReplayReproducesGroomedRoutes) {
  // The operator loop as an event stream: the report's surviving steps in
  // order, reverted steps elided (a revert restores the spec, so skipping the
  // pair reproduces the final state). Replaying them through an engine seeded
  // with the pre-grooming announcement must land on the groomed spec — and
  // re-converge, incrementally, to exactly the routes a full rebuild computes
  // for it.
  const auto& sc = sparse_scenario();
  AnycastCdn cdn{&sc.internet, &sc.provider};
  const bgp::OriginSpec before = cdn.anycast_spec();
  AnycastGroomer groomer{&cdn, &sc.latency, &sc.clients, quick_config()};
  const auto report = groomer.groom();
  if (report.steps.empty()) GTEST_SKIP() << "nothing to groom in this world";
  const bgp::OriginSpec& after = cdn.anycast_spec();

  std::vector<bgp::ChurnEvent> events;
  for (const GroomingStep& s : report.steps) {
    if (s.reverted) continue;
    // total_prepend is the post-step absolute count, matching the
    // set-not-increment semantics of ChurnKind::Prepend.
    events.push_back(s.withdrawn ? bgp::ChurnEvent::suppress_edge(s.edge)
                                 : bgp::ChurnEvent::prepend_set(s.edge, s.total_prepend));
  }
  bgp::ChurnEngine eng{&sc.internet.graph, before};
  eng.reconverge(events);
  EXPECT_EQ(eng.effective_spec().prepend, after.prepend);
  EXPECT_EQ(eng.effective_spec().suppress, after.suppress);

  const auto want = bgp::compute_routes_reference(sc.internet.graph, after);
  const auto& got = eng.table();
  ASSERT_EQ(got.size(), want.size());
  for (topo::AsIndex i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).cls, want.at(i).cls);
    EXPECT_EQ(got.at(i).length, want.at(i).length);
    EXPECT_EQ(got.at(i).next_hop, want.at(i).next_hop);
    EXPECT_EQ(got.at(i).via_edge, want.at(i).via_edge);
  }
}

TEST_F(GroomingTest, HighThresholdMeansNoSteps) {
  const auto& sc = sparse_scenario();
  AnycastCdn cdn{&sc.internet, &sc.provider};
  auto cfg = quick_config();
  cfg.badness_threshold_ms = 1e9;
  AnycastGroomer groomer{&cdn, &sc.latency, &sc.clients, cfg};
  const auto report = groomer.groom();
  EXPECT_TRUE(report.steps.empty());
  EXPECT_TRUE(cdn.anycast_spec().prepend.empty());
}

}  // namespace
}  // namespace bgpcmp::cdn
