// The per-<PoP, prefix> unit of Study 1 and its plan -> measure kernel.
// run_pop_pairs is the one kernel: the eager study (study_pop.h) runs it on
// the whole client population and the streaming scale study (scale_study.h)
// on one chunk at a time. Every series depends only on its pair, never on
// the window it was computed in, so both produce bit-identical series for
// the same world.
#pragma once

#include <span>
#include <vector>

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/bgp/route.h"
#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/core/study_pop.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/traffic/clients.h"

namespace bgpcmp::core {

/// The ranked egress routes and their realized paths for one <PoP, prefix>.
struct PairPlan {
  cdn::PopId pop = cdn::kNoPop;
  traffic::PrefixId prefix = 0;
  std::vector<EgressRouteInfo> routes;
  std::vector<lat::GeoPath> paths;

  /// A pair is measurable only when BGP had a real choice to make.
  [[nodiscard]] bool measurable() const { return routes.size() >= 2; }
};

/// Plan one pair: pick the serving PoP, rank the egress routes by BGP policy,
/// realize top-k paths. Reads only immutable world state plus `rib`, the
/// routes the provider AS hears toward the client's origin
/// (bgp::adj_rib_in), so planning fans out over any axis (pairs, chunks,
/// shards). Pairs with fewer than two usable routes come back with routes
/// cleared.
[[nodiscard]] PairPlan plan_pop_pair(const topo::AsGraph& graph,
                                     const topo::CityDb& db,
                                     const cdn::ContentProvider& provider,
                                     const traffic::ClientPrefix& client,
                                     traffic::PrefixId prefix,
                                     std::span<const bgp::CandidateRoute> rib, int top_k);

/// Same, reading the provider's routes off the origin's full route table.
[[nodiscard]] PairPlan plan_pop_pair(const topo::AsGraph& graph,
                                     const topo::CityDb& db,
                                     const cdn::ContentProvider& provider,
                                     const traffic::ClientPrefix& client,
                                     traffic::PrefixId prefix,
                                     const bgp::RouteTable& table, int top_k);

/// Measure one planned pair across the windows: spray sampled sessions over
/// every route, keep per-window medians and the bootstrap CI of
/// (BGP - best alternate). Volumes come from traffic::diurnal_volume of
/// `popularity` at `lon_deg`, the function DemandModel::volume calls.
/// Deterministic in its arguments: the RNG is forked from `root` by
/// <prefix, pop>, never by call order.
[[nodiscard]] PopPrefixSeries measure_pop_pair(
    const PairPlan& plan, const traffic::ClientPrefix& client,
    const std::vector<TimeWindow>& windows, double popularity, double lon_deg,
    const traffic::DemandConfig& demand, const lat::LatencyModel& latency,
    const lat::RttSampler& sampler, const Rng& root, const PopStudyConfig& config);

/// Study 1 over a client window, where `clients[i]` has global id
/// `first_prefix + i` and popularity `popularity[i]`: plan every prefix,
/// then measure_pop_pair every measurable plan across the pool, collected in
/// prefix order. Each run of prefixes sharing an origin AS is one planning
/// work item: it computes the provider's Adj-RIB-in toward that origin once
/// (bgp::adj_rib_in) and plans the run's prefixes from it. The client
/// generator emits each origin's prefixes contiguously, so that is one RIB
/// per origin. Byte-identical for any thread count and any window split:
/// tools/determinism_audit --compare-threads checks the first,
/// tests/core/scale_study_test.cpp the second.
[[nodiscard]] std::vector<PopPrefixSeries> run_pop_pairs(
    const ScaleWorld& world, std::span<const traffic::ClientPrefix> clients,
    traffic::PrefixId first_prefix, std::span<const double> popularity,
    const std::vector<TimeWindow>& windows, const PopStudyConfig& config);

}  // namespace bgpcmp::core
