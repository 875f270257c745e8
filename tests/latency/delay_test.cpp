#include "bgpcmp/latency/delay.h"

#include <gtest/gtest.h>

#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::lat {
namespace {

class DelayTest : public ::testing::Test {
 protected:
  static topo::Internet small_internet() {
    topo::InternetConfig cfg;
    cfg.seed = 12;
    cfg.tier1_count = 4;
    cfg.transit_count = 8;
    cfg.eyeball_count = 15;
    cfg.stub_count = 5;
    return topo::build_internet(cfg);
  }

  void SetUp() override {
    // Quiet congestion for deterministic floor checks.
    ccfg_.event_rate_per_day = 0.0;
    ccfg_.access_event_rate_per_day = 0.0;
    ccfg_.diurnal_amplitude = 0.0;
    ccfg_.access_diurnal_peak_ms = 0.0;
    ccfg_.base_util_min = 0.0;
    ccfg_.base_util_max = 0.0;
    field_.emplace(&net_.graph, net_.cities, ccfg_, 5);
    model_.emplace(&net_.graph, net_.cities, &*field_, LatencyConfig{});
  }

  /// Any two-AS adjacent path in the generated net.
  GeoPath some_path() {
    for (const auto& edge : net_.graph.edges()) {
      const auto& a = net_.graph.node(edge.a);
      const auto& b = net_.graph.node(edge.b);
      const topo::AsIndex path[] = {edge.a, edge.b};
      auto geo = build_geo_path(net_.graph, net_.city_db(), path, a.presence[0],
                                b.presence[0]);
      if (geo.valid() && geo.geo_distance().value() > 100.0) return geo;
    }
    ADD_FAILURE() << "no usable path";
    return {};
  }

  topo::Internet net_ = small_internet();
  CongestionConfig ccfg_;
  std::optional<CongestionField> field_;
  std::optional<LatencyModel> model_;
};

TEST_F(DelayTest, FloorMatchesGeographyWhenQuiet) {
  const auto path = some_path();
  const AccessProfile profile{6.0};
  const auto rtt = model_->rtt(path, SimTime::hours(4), profile,
                               path.as_path.back(), path.segments.back().to);
  // Propagation = 2x one-way over inflated distance.
  double expected = 0.0;
  for (const auto& seg : path.segments) {
    expected += 2.0 * seg.geo.value() * seg.inflation / 200.0;
  }
  EXPECT_NEAR(rtt.propagation.value(), expected, 1e-9);
  EXPECT_NEAR(rtt.queueing.value(), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(rtt.access.value(), 6.0);
  EXPECT_NEAR(rtt.total().value(),
              expected + 6.0 +
                  0.3 * static_cast<double>(path.crossed_links.size()),
              1e-9);
}

TEST_F(DelayTest, ProcessingScalesWithHops) {
  const auto path = some_path();
  const AccessProfile profile{0.0};
  const auto rtt = model_->rtt(path, SimTime{0}, profile, path.as_path.back(),
                               path.segments.back().to);
  EXPECT_DOUBLE_EQ(rtt.processing.value(),
                   0.3 * static_cast<double>(path.crossed_links.size()));
}

TEST_F(DelayTest, AccessSideIsCallerChosen) {
  // Same path, two different access keys: base last-mile identical when the
  // congestion field is quiet, but the key must be respected (no crash, and
  // with events enabled they would diverge — covered in congestion tests).
  const auto path = some_path();
  const AccessProfile profile{3.0};
  const auto a = model_->rtt(path, SimTime{0}, profile, path.as_path.front(),
                             path.segments.front().from);
  const auto b = model_->rtt(path, SimTime{0}, profile, path.as_path.back(),
                             path.segments.back().to);
  EXPECT_DOUBLE_EQ(a.access.value(), b.access.value());
  EXPECT_DOUBLE_EQ(a.propagation.value(), b.propagation.value());
}

TEST_F(DelayTest, TotalIsSumOfParts) {
  const auto path = some_path();
  const AccessProfile profile{7.5};
  const auto rtt = model_->rtt(path, SimTime::hours(9), profile,
                               path.as_path.back(), path.segments.back().to);
  EXPECT_DOUBLE_EQ(rtt.total().value(),
                   rtt.propagation.value() + rtt.processing.value() +
                       rtt.queueing.value() + rtt.access.value());
}

TEST_F(DelayTest, CongestionAddsDelay) {
  // Re-enable congestion and verify queueing becomes nonzero somewhere.
  CongestionConfig noisy;  // defaults have events and diurnal swing
  CongestionField field{&net_.graph, net_.cities, noisy, 5};
  LatencyModel model{&net_.graph, net_.cities, &field, LatencyConfig{}};
  const auto path = some_path();
  const AccessProfile profile{0.0};
  double max_queue = 0.0;
  for (double h = 0; h < 48; h += 0.5) {
    max_queue = std::max(max_queue,
                         model
                             .rtt(path, SimTime::hours(h), profile,
                                  path.as_path.back(), path.segments.back().to)
                             .queueing.value());
  }
  EXPECT_GT(max_queue, 0.0);
}

}  // namespace
}  // namespace bgpcmp::lat
