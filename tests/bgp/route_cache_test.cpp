#include "bgpcmp/bgp/route_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::bgp {
namespace {

topo::Internet small_internet(std::uint64_t seed) {
  topo::InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 4;
  cfg.transit_count = 8;
  cfg.eyeball_count = 10;
  cfg.stub_count = 4;
  return topo::build_internet(cfg);
}

void expect_identical(const RouteTable& got, const RouteTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (topo::AsIndex i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.at(i).cls, want.at(i).cls);
    EXPECT_EQ(got.at(i).length, want.at(i).length);
    EXPECT_EQ(got.at(i).next_hop, want.at(i).next_hop);
    EXPECT_EQ(got.at(i).via_edge, want.at(i).via_edge);
  }
}

TEST(RouteCache, ComputesOncePerOrigin) {
  const auto net = small_internet(2);
  exec::ThreadPool pool{2};
  RouteCache cache{&net.graph};
  EXPECT_EQ(cache.size(), 0u);
  const std::vector<topo::AsIndex> first{net.eyeballs[0]};
  cache.warm(first, pool);
  const RouteTable* a = cache.find(net.eyeballs[0]);
  ASSERT_NE(a, nullptr);
  cache.warm(first, pool);
  EXPECT_EQ(cache.find(net.eyeballs[0]), a);  // same table object, no recomputation
  EXPECT_EQ(cache.size(), 1u);
  const std::vector<topo::AsIndex> both{net.eyeballs[0], net.eyeballs[1]};
  cache.warm(both, pool);
  EXPECT_EQ(cache.find(net.eyeballs[0]), a);  // warming never moves a table
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RouteCache, MatchesDirectComputation) {
  const auto net = small_internet(3);
  exec::ThreadPool pool{2};
  RouteCache cache{&net.graph};
  const auto origin = net.eyeballs[2];
  const std::vector<topo::AsIndex> origins{origin};
  cache.warm(origins, pool);
  ASSERT_NE(cache.find(origin), nullptr);
  expect_identical(*cache.find(origin), compute_routes(net.graph, origin));
}

TEST(RouteCache, WarmDedupsAndMatchesDirect) {
  const auto net = small_internet(5);
  exec::ThreadPool pool{2};
  RouteCache cache{&net.graph};
  const std::vector<topo::AsIndex> origins{net.eyeballs[0], net.eyeballs[1],
                                           net.eyeballs[0], net.eyeballs[2],
                                           net.eyeballs[1]};
  cache.warm(origins, pool);
  EXPECT_EQ(cache.size(), 3u);  // duplicates computed once
  for (const auto o : {net.eyeballs[0], net.eyeballs[1], net.eyeballs[2]}) {
    const RouteTable* warmed = cache.find(o);
    ASSERT_NE(warmed, nullptr);
    expect_identical(*warmed, compute_routes(net.graph, o));
  }
  EXPECT_EQ(cache.find(net.eyeballs[3]), nullptr);  // never warmed
}

TEST(RouteCache, ParallelWarmIdenticalToSerialAtAnyWidth) {
  const auto net = small_internet(7);
  std::vector<topo::AsIndex> origins{net.eyeballs.begin(), net.eyeballs.end()};
  for (const int width : {1, 2, 8}) {
    exec::ThreadPool pool{width};
    RouteCache cache{&net.graph};
    cache.warm(origins, pool);
    EXPECT_EQ(cache.size(), origins.size());
    for (const auto o : origins) {
      ASSERT_NE(cache.find(o), nullptr);
      expect_identical(*cache.find(o), compute_routes(net.graph, o));
    }
  }
}

TEST(RouteCache, WarmedTablesReadableFromConcurrentThreads) {
  const auto net = small_internet(7);
  std::vector<topo::AsIndex> origins{net.eyeballs.begin(), net.eyeballs.end()};
  exec::ThreadPool pool{4};
  RouteCache cache{&net.graph};
  cache.warm(origins, pool);
  // The read phase of warm-then-plan: concurrent find() on warmed origins
  // must be race-free (tsan guards this in CI).
  std::vector<std::thread> threads;
  std::vector<std::size_t> reachable(4, 0);
  for (std::size_t t = 0; t < reachable.size(); ++t) {
    threads.emplace_back([&, t] {
      std::size_t n = 0;
      for (const auto o : origins) {
        const RouteTable* table = cache.find(o);
        for (topo::AsIndex i = 0; i < net.graph.as_count(); ++i) {
          if (table->reachable(i)) ++n;
        }
      }
      reachable[t] = n;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < reachable.size(); ++t) {
    EXPECT_EQ(reachable[t], reachable[0]);
  }
}

}  // namespace
}  // namespace bgpcmp::bgp
