#include "bgpcmp/latency/congestion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::lat {
namespace {

topo::Internet small_net() {
  topo::InternetConfig cfg;
  cfg.seed = 9;
  cfg.tier1_count = 4;
  cfg.transit_count = 8;
  cfg.eyeball_count = 15;
  cfg.stub_count = 5;
  return topo::build_internet(cfg);
}

class CongestionTest : public ::testing::Test {
 protected:
  topo::Internet net_ = small_net();
  CongestionConfig cfg_;
  CongestionField field_{&net_.graph, net_.cities, cfg_, 1234};
};

TEST(QueueingDelay, NegligibleWhenIdle) {
  const CongestionConfig cfg;
  EXPECT_LT(queueing_delay(0.0, cfg).value(), 1e-9);
  EXPECT_LT(queueing_delay(0.3, cfg).value(), 0.1);
}

TEST(QueueingDelay, ConvexAndCapped) {
  const CongestionConfig cfg;
  double prev = 0.0;
  for (double u = 0.0; u <= 0.99; u += 0.01) {
    const double d = queueing_delay(u, cfg).value();
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_LE(queueing_delay(0.99, cfg).value(), cfg.queue_cap_ms + 1e-9);
  EXPECT_GT(queueing_delay(0.95, cfg).value(), 5.0);
}

TEST(QueueingDelay, ClampsOutOfRangeUtilization) {
  const CongestionConfig cfg;
  EXPECT_DOUBLE_EQ(queueing_delay(-0.5, cfg).value(), 0.0);
  EXPECT_LE(queueing_delay(2.0, cfg).value(), cfg.queue_cap_ms);
}

TEST_F(CongestionTest, UtilizationWithinBounds) {
  for (topo::LinkId l = 0; l < std::min<std::size_t>(net_.graph.link_count(), 50);
       ++l) {
    for (double h = 0; h < 48; h += 3.17) {
      const double u = field_.link_utilization(l, SimTime::hours(h));
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 0.99);
    }
  }
}

TEST_F(CongestionTest, DeterministicAcrossInstances) {
  CongestionField other{&net_.graph, net_.cities, cfg_, 1234};
  for (topo::LinkId l = 0; l < std::min<std::size_t>(net_.graph.link_count(), 20);
       ++l) {
    const SimTime t = SimTime::hours(7.5);
    EXPECT_DOUBLE_EQ(field_.link_utilization(l, t), other.link_utilization(l, t));
    EXPECT_DOUBLE_EQ(field_.access_delay(net_.eyeballs[0], 0, t).value(),
                     other.access_delay(net_.eyeballs[0], 0, t).value());
  }
}

TEST_F(CongestionTest, SeedChangesTheField) {
  CongestionField other{&net_.graph, net_.cities, cfg_, 9999};
  int different = 0;
  for (topo::LinkId l = 0; l < std::min<std::size_t>(net_.graph.link_count(), 20);
       ++l) {
    if (field_.link_utilization(l, SimTime::hours(1)) !=
        other.link_utilization(l, SimTime::hours(1))) {
      ++different;
    }
  }
  EXPECT_GT(different, 10);
}

TEST_F(CongestionTest, LoadScaleRaisesUtilization) {
  const topo::LinkId l = 0;
  const SimTime t = SimTime::hours(12);
  const double base = field_.link_utilization(l, t);
  field_.set_load_scale(l, 1.8);
  EXPECT_GT(field_.link_utilization(l, t), base);
  field_.set_load_scale(l, 0.0);
  // Zero offered load leaves only event magnitude (often 0).
  EXPECT_LE(field_.link_utilization(l, t), 0.99);
}

TEST_F(CongestionTest, DiurnalSwingIsVisible) {
  // Utilization must vary across the day (peak vs trough) for most links.
  int varying = 0;
  const int checked = static_cast<int>(std::min<std::size_t>(30, net_.graph.link_count()));
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(checked); ++l) {
    double lo = 1.0;
    double hi = 0.0;
    for (double h = 0; h < 24; h += 1.0) {
      const double u = field_.link_utilization(l, SimTime::hours(h));
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
    if (hi - lo > 0.05) ++varying;
  }
  EXPECT_GT(varying, checked / 2);
}

TEST_F(CongestionTest, EventsCreateTransientSpikes) {
  // Scanning a long horizon at fine grain must find at least one window where
  // some link's queueing delay spikes well above its daily baseline.
  bool spike_found = false;
  for (topo::LinkId l = 0; l < std::min<std::size_t>(net_.graph.link_count(), 60) &&
                           !spike_found;
       ++l) {
    double baseline = 1e9;
    for (double h = 0; h < 24; h += 2) {
      baseline = std::min(baseline, field_.link_delay(l, SimTime::hours(h)).value());
    }
    for (double h = 0; h < 24 * 10; h += 0.5) {
      if (field_.link_delay(l, SimTime::hours(h)).value() > baseline + 10.0) {
        spike_found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(spike_found);
}

TEST_F(CongestionTest, AccessDelayNonNegativeAndShared) {
  const auto as = net_.eyeballs[0];
  const auto city = net_.graph.node(as).presence[0];
  for (double h = 0; h < 72; h += 0.7) {
    const auto d = field_.access_delay(as, city, SimTime::hours(h));
    EXPECT_GE(d.value(), 0.0);
  }
  // Same (as, city, t) always yields the same value — the shared-congestion
  // property every route to those clients sees.
  const SimTime t = SimTime::hours(33.3);
  EXPECT_DOUBLE_EQ(field_.access_delay(as, city, t).value(),
                   field_.access_delay(as, city, t).value());
}

TEST_F(CongestionTest, EventLookupHonorsHalfOpenIntervals) {
  // Direct LinkProcess probe of the binary-searched event lookup: one event
  // over [10h, 11h) with magnitude 0.5, diurnal swing disabled so
  // utilization is exactly base + active magnitude.
  CongestionConfig cfg;
  cfg.diurnal_amplitude = 0.0;
  const LinkProcess proc{0.2, 0.0, 0.0,
                         {CongestionEvent{SimTime::hours(10.0),
                                          SimTime::hours(11.0), 0.5}}};
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(9.5), 1.0, cfg), 0.2);
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(10.0), 1.0, cfg), 0.7);  // start in
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(10.5), 1.0, cfg), 0.7);
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(11.0), 1.0, cfg), 0.2);  // end out
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(11.5), 1.0, cfg), 0.2);
}

TEST_F(CongestionTest, EventLookupFindsTheRightEventInLongLists) {
  // A dense E5-scale list: 500 disjoint events [2k, 2k+1) hours with
  // distinguishable magnitudes. The lookup must return exactly the covering
  // event's magnitude at any probe, same as the old linear scan.
  CongestionConfig cfg;
  cfg.diurnal_amplitude = 0.0;
  std::vector<CongestionEvent> events;
  for (int k = 0; k < 500; ++k) {
    events.push_back(CongestionEvent{SimTime::hours(2.0 * k),
                                     SimTime::hours(2.0 * k + 1.0),
                                     0.001 * (k % 700)});
  }
  const LinkProcess proc{0.0, 0.0, 0.0, events};
  for (int k = 0; k < 500; k += 7) {
    const double in_event =
        proc.utilization(SimTime::hours(2.0 * k + 0.25), 1.0, cfg);
    const double in_gap =
        proc.utilization(SimTime::hours(2.0 * k + 1.5), 1.0, cfg);
    EXPECT_DOUBLE_EQ(in_event, std::clamp(0.001 * (k % 700), 0.0, 0.99));
    EXPECT_DOUBLE_EQ(in_gap, 0.0);
  }
  // Probes outside the generated horizon on both sides.
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(-5.0), 1.0, cfg), 0.0);
  EXPECT_DOUBLE_EQ(proc.utilization(SimTime::hours(5000.0), 1.0, cfg), 0.0);
}

TEST_F(CongestionTest, ConcurrentAccessDelayMatchesSequentialStream) {
  // Regression for the access_process() data race: the cache was populated
  // from a const method with no synchronization. Query a fresh field from
  // four threads at once — colliding on cold keys — and require the exact
  // RTT stream a sequential field produces. Runs under the tsan preset.
  std::vector<std::pair<topo::AsIndex, topo::CityId>> keys;
  for (const auto as : net_.eyeballs) {
    keys.emplace_back(as, net_.graph.node(as).presence[0]);
  }
  std::vector<double> expected;
  for (const auto& [as, city] : keys) {
    for (double h = 0.25; h < 36.0; h += 1.5) {
      expected.push_back(field_.access_delay(as, city, SimTime::hours(h)).value());
    }
  }

  const CongestionField fresh{&net_.graph, net_.cities, cfg_, 1234};
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (const auto& [as, city] : keys) {
        for (double h = 0.25; h < 36.0; h += 1.5) {
          got[w].push_back(fresh.access_delay(as, city, SimTime::hours(h)).value());
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& stream : got) EXPECT_EQ(stream, expected);
}

TEST_F(CongestionTest, AccessProcessesIndependentAcrossAses) {
  const auto city = net_.graph.node(net_.eyeballs[0]).presence[0];
  int differing = 0;
  for (double h = 1; h < 100; h += 7) {
    const auto a = field_.access_delay(net_.eyeballs[0], city, SimTime::hours(h));
    const auto b = field_.access_delay(net_.eyeballs[1], city, SimTime::hours(h));
    if (a.value() != b.value()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

}  // namespace
}  // namespace bgpcmp::lat
