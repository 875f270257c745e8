// M1: google-benchmark microbenchmarks of the library's hot paths — the
// engineering companion to the reproduction benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/scale_study.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/congestion.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/stats/bootstrap.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/stats/quantile.h"
#include "bgpcmp/topology/world_cache.h"
#include "bgpcmp/traffic/client_stream.h"

namespace {

using namespace bgpcmp;

const core::Scenario& shared_scenario() {
  static const auto scenario = core::Scenario::make();
  return *scenario;
}

// The default world with every AS-class count multiplied by `scale`, provider
// attached, built once per scale. Route benches take the scale as their Arg:
// at 1x (369 ASes) a table's state fits in L1; at 30x (11,041 ASes) it does
// not, and that is the size the streaming study warms.
const core::ScaleWorld& scaled_world(std::int64_t scale) {
  static std::map<std::int64_t, std::unique_ptr<core::ScaleWorld>> worlds;
  auto& slot = worlds[scale];
  if (!slot) {
    core::ScenarioConfig cfg;
    const auto mult = static_cast<int>(scale);
    cfg.internet.tier1_count *= mult;
    cfg.internet.transit_count *= mult;
    cfg.internet.eyeball_count *= mult;
    cfg.internet.stub_count *= mult;
    slot = core::ScaleWorld::make(cfg);
  }
  return *slot;
}

// World construction at 1x/4x/10x AS counts. The indexed build (presence set,
// edge-pair map, ASN map, region/country tables, per-city IXP buckets) must
// hold the 4x/1x time ratio far below the quadratic regime the old linear
// scans produced; scripts/check.sh smoke-gates the 4x point.
void BM_BuildInternet(benchmark::State& state) {
  topo::InternetConfig cfg;
  cfg.seed = 7;
  const auto mult = static_cast<std::size_t>(state.range(0));
  cfg.tier1_count *= mult;
  cfg.transit_count *= mult;
  cfg.eyeball_count *= mult;
  cfg.stub_count *= mult;
  for (auto _ : state) {
    auto net = topo::build_internet(cfg);
    benchmark::DoNotOptimize(net.graph.link_count());
  }
}
BENCHMARK(BM_BuildInternet)->Arg(1)->Arg(4)->Arg(10)->Unit(benchmark::kMillisecond);

// A WorldCache hit: everything but the shared_ptr copy should be amortized
// away — the contrast with BM_BuildInternet/1 is the memoization win.
void BM_WorldCacheHit(benchmark::State& state) {
  topo::WorldCache cache;
  topo::InternetConfig cfg;
  cfg.seed = 7;
  (void)cache.get(cfg);  // prime
  for (auto _ : state) {
    auto world = cache.get(cfg);
    benchmark::DoNotOptimize(world->graph.link_count());
  }
}
BENCHMARK(BM_WorldCacheHit)->Unit(benchmark::kMicrosecond);

void BM_RoutePropagation(benchmark::State& state) {
  const auto& sc = scaled_world(state.range(0));
  const auto origins = sc.internet.eyeballs;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto table =
        bgp::compute_routes(sc.internet.graph, origins[i++ % origins.size()]);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_RoutePropagation)->Arg(1)->Arg(30)->Unit(benchmark::kMicrosecond);

// The retired full-scan fixpoint, kept as the golden reference the kernel
// is pinned against; the gap between this and BM_RoutePropagation/1 is the
// worklist + CSR + provider-first sweep win.
void BM_RoutePropagationReference(benchmark::State& state) {
  const auto& sc = shared_scenario();
  const auto origins = sc.internet.eyeballs;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto table = bgp::compute_routes_reference(
        sc.internet.graph, bgp::OriginSpec::everywhere(origins[i++ % origins.size()]));
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_RoutePropagationReference)->Unit(benchmark::kMicrosecond);

// Warm eyeball origins' tables through the two-phase cache: Args are
// (scale, pool width). At 1x every eyeball is warmed; at 30x the first 256,
// one streaming-study chunk. Widths >1 on a single CPU mostly measure
// dispatch overhead; the byte-identical-at-any-width contract is what the
// tests pin.
void BM_RouteCacheWarm(benchmark::State& state) {
  const auto& sc = scaled_world(state.range(0));
  const auto& eyeballs = sc.internet.eyeballs;
  const std::vector<topo::AsIndex> origins(
      eyeballs.begin(), eyeballs.begin() + std::min<std::ptrdiff_t>(256, std::ssize(eyeballs)));
  (void)sc.internet.graph.edge_index();  // exclude the one-time CSR build
  exec::ThreadPool pool{static_cast<int>(state.range(1))};
  for (auto _ : state) {
    bgp::RouteCache cache{&sc.internet.graph};
    cache.warm(origins, pool);
    benchmark::DoNotOptimize(cache.size());
  }
}
BENCHMARK(BM_RouteCacheWarm)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({30, 1})
    ->Args({30, 8})
    ->Unit(benchmark::kMillisecond);

// fig1's actual hot loop: the CI of (BGP - best alternate) medians, called
// once per <pair, window> with the study's own bootstrap options. The Arg is
// the per-route session count: the clamp bounds (3, 40) and the measured mean
// (~19). measure_pop_pair sorts each route's samples before the call, so the
// inputs here are sorted too.
void BM_BootstrapMedianDiffCi(benchmark::State& state) {
  Rng rng{1234};
  std::vector<double> a;
  std::vector<double> b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    a.push_back(rng.normal(50, 10));
    b.push_back(rng.normal(48, 10));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const stats::BootstrapOptions opts = core::PopStudyConfig{}.bootstrap;
  for (auto _ : state) {
    const auto ci = stats::bootstrap_median_diff_ci(a, b, rng, opts);
    benchmark::DoNotOptimize(ci.point);
  }
}
BENCHMARK(BM_BootstrapMedianDiffCi)
    ->Arg(3)
    ->Arg(19)
    ->Arg(40)
    ->Unit(benchmark::kMicrosecond);

void BM_CandidateRoutes(benchmark::State& state) {
  const auto& sc = scaled_world(state.range(0));
  const auto table =
      bgp::compute_routes(sc.internet.graph, sc.internet.eyeballs.front());
  for (auto _ : state) {
    auto candidates = bgp::candidate_routes_at(sc.internet.graph, table,
                                               sc.provider.as_index());
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_CandidateRoutes)->Arg(1)->Arg(30)->Unit(benchmark::kMicrosecond);

// What the Fig 1 studies compute per client origin: the provider's
// Adj-RIB-in from the origin's dependency closure, cycling over one
// streaming chunk's origins (the first 256). Compare with one
// BM_RoutePropagation plus one BM_CandidateRoutes, the table-and-walk it
// replaces.
void BM_AdjRibIn(benchmark::State& state) {
  const auto& sc = scaled_world(state.range(0));
  const traffic::ClientStream stream{&sc.internet, sc.config.clients, 256};
  const auto origins = stream.chunk_origin_ases(0);
  (void)sc.internet.graph.edge_index();  // exclude the one-time CSR build
  std::size_t i = 0;
  for (auto _ : state) {
    auto rib = bgp::adj_rib_in(sc.internet.graph,
                               bgp::OriginSpec::everywhere(origins[i++ % origins.size()]),
                               sc.provider.as_index());
    benchmark::DoNotOptimize(rib.data());
  }
}
BENCHMARK(BM_AdjRibIn)->Arg(1)->Arg(30)->Unit(benchmark::kMicrosecond);

// RouteTable::path on the serving hot path: every query materializes an AS
// path, so the walk should cost one allocation (the stored route length
// bounds the hop count and sizes the reservation up front).
void BM_RouteTablePath(benchmark::State& state) {
  const auto& sc = shared_scenario();
  const auto table =
      bgp::compute_routes(sc.internet.graph, sc.provider.as_index());
  const auto origins = sc.internet.eyeballs;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto path = table.path(origins[i++ % origins.size()]);
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_RouteTablePath)->Unit(benchmark::kNanosecond);

void BM_GeoPathRealization(benchmark::State& state) {
  const auto& sc = shared_scenario();
  const auto& client = sc.clients.at(0);
  const auto table = bgp::compute_routes(sc.internet.graph, client.origin_as);
  const auto path = table.path(sc.provider.as_index());
  for (auto _ : state) {
    auto geo = lat::build_geo_path(sc.internet.graph, sc.internet.city_db(), path,
                                   sc.provider.pops()[0].city, client.city);
    benchmark::DoNotOptimize(geo.segments.size());
  }
}
BENCHMARK(BM_GeoPathRealization)->Unit(benchmark::kNanosecond);

void BM_RttEvaluation(benchmark::State& state) {
  const auto& sc = shared_scenario();
  const auto& client = sc.clients.at(0);
  const auto table = bgp::compute_routes(sc.internet.graph, client.origin_as);
  const auto path = table.path(sc.provider.as_index());
  const auto geo = lat::build_geo_path(sc.internet.graph, sc.internet.city_db(), path,
                                       sc.provider.pops()[0].city, client.city);
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto rtt = sc.latency.rtt(geo, SimTime{t += 60}, client.access,
                                    client.origin_as, client.city);
    benchmark::DoNotOptimize(rtt.total());
  }
}
BENCHMARK(BM_RttEvaluation)->Unit(benchmark::kNanosecond);

void BM_WeightedQuantile(benchmark::State& state) {
  Rng rng{123};
  std::vector<stats::Weighted> obs;
  obs.reserve(static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    obs.push_back(stats::Weighted{rng.normal(50, 10), rng.uniform(0.1, 5.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::weighted_quantile(obs, 0.5));
  }
}
BENCHMARK(BM_WeightedQuantile)->Range(64, 65536)->Unit(benchmark::kMicrosecond);

void BM_CdfSeries(benchmark::State& state) {
  Rng rng{321};
  stats::WeightedCdf cdf;
  for (int i = 0; i < 100000; ++i) cdf.add(rng.normal(0, 5), rng.uniform(0.1, 2.0));
  for (auto _ : state) {
    auto series = cdf.cdf_series(-10, 10, 21);
    benchmark::DoNotOptimize(series.size());
  }
}
BENCHMARK(BM_CdfSeries)->Unit(benchmark::kMicrosecond);

// WeightedCdf::quantile binary-searches the cumulative weights its sorted
// state maintains; the figure loops call it per rendered point, so it must
// not re-sort per call the way freestanding weighted_quantile does.
void BM_CdfQuantile(benchmark::State& state) {
  Rng rng{321};
  stats::WeightedCdf cdf;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    cdf.add(rng.normal(0, 5), rng.uniform(0.1, 2.0));
  }
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q > 1.0) q = 0.0;
    benchmark::DoNotOptimize(cdf.quantile(q));
  }
}
BENCHMARK(BM_CdfQuantile)->Range(64, 65536)->Unit(benchmark::kNanosecond);

// Utilization lookups binary-search the per-link congestion event list; the
// range covers E5-scale horizons (70 days ~ a few hundred events per link at
// the default rates), where the old linear scan paid O(events) per sample.
void BM_CongestionLookup(benchmark::State& state) {
  const auto& sc = shared_scenario();
  lat::CongestionConfig cfg;
  cfg.horizon_days = static_cast<double>(state.range(0));
  cfg.event_rate_per_day = 4.0;  // dense event lists stress the lookup
  const lat::CongestionField field{&sc.internet.graph, sc.internet.cities, cfg, 99};
  std::int64_t t = 0;
  const std::int64_t horizon_s =
      static_cast<std::int64_t>(cfg.horizon_days * 24.0 * 3600.0);
  for (auto _ : state) {
    t = (t + 977) % horizon_s;  // stride coprime to the horizon
    benchmark::DoNotOptimize(field.link_utilization(0, SimTime{t}));
  }
}
BENCHMARK(BM_CongestionLookup)->Arg(12)->Arg(70)->Unit(benchmark::kNanosecond);

// The exec layer itself: fan a trivially-parallel loop out over the pool.
// Compares pool dispatch overhead against the inline single-thread path.
void BM_ParallelFor(benchmark::State& state) {
  exec::ThreadPool pool{static_cast<int>(state.range(0))};
  std::vector<double> out(4096);
  for (auto _ : state) {
    pool.parallel_for(out.size(), [&](std::size_t i) {
      double acc = static_cast<double>(i);
      for (int k = 0; k < 200; ++k) acc = acc * 1.0000001 + 0.5;
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
