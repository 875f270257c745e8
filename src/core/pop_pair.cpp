#include "bgpcmp/core/pop_pair.h"

#include <algorithm>
#include <string>

#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/quantile.h"
#include "bgpcmp/traffic/demand.h"
#include "bgpcmp/traffic/sessions.h"

namespace bgpcmp::core {

namespace {

float median_of(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return static_cast<float>(stats::quantile_sorted(samples, 0.5));
}

/// The measurable plans of a client window (`clients[i]` has global id
/// `first_prefix + i`), in prefix order, one Adj-RIB-in per origin run.
std::vector<PairPlan> plan_pop_pairs(const topo::AsGraph& graph, const topo::CityDb& db,
                                     const cdn::ContentProvider& provider,
                                     std::span<const traffic::ClientPrefix> clients,
                                     traffic::PrefixId first_prefix, int top_k) {
  std::vector<std::size_t> run_starts;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (i == 0 || clients[i].origin_as != clients[i - 1].origin_as) run_starts.push_back(i);
  }
  run_starts.push_back(clients.size());
  // Build the CSR index before the fan-out so workers share one snapshot
  // instead of racing to construct it (as RouteCache::warm does).
  (void)graph.edge_index();
  auto planned = exec::parallel_map(run_starts.size() - 1, [&](std::size_t r) {
    const std::size_t begin = run_starts[r];
    const std::size_t end = run_starts[r + 1];
    const auto rib = bgp::adj_rib_in(
        graph, bgp::OriginSpec::everywhere(clients[begin].origin_as), provider.as_index());
    std::vector<PairPlan> plans;
    for (std::size_t i = begin; i < end; ++i) {
      PairPlan plan = plan_pop_pair(graph, db, provider, clients[i],
                                    first_prefix + static_cast<traffic::PrefixId>(i), rib,
                                    top_k);
      if (plan.measurable()) plans.push_back(std::move(plan));
    }
    return plans;
  });
  std::vector<PairPlan> plans;
  for (auto& run : planned) {
    for (auto& plan : run) plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace

PairPlan plan_pop_pair(const topo::AsGraph& graph, const topo::CityDb& db,
                       const cdn::ContentProvider& provider,
                       const traffic::ClientPrefix& client, traffic::PrefixId prefix,
                       const bgp::RouteTable& table, int top_k) {
  return plan_pop_pair(graph, db, provider, client, prefix,
                       bgp::candidate_routes_at(graph, table, provider.as_index()), top_k);
}

PairPlan plan_pop_pair(const topo::AsGraph& graph, const topo::CityDb& db,
                       const cdn::ContentProvider& provider,
                       const traffic::ClientPrefix& client, traffic::PrefixId prefix,
                       std::span<const bgp::CandidateRoute> rib, int top_k) {
  const cdn::PopId pop = provider.serving_pop(graph, db, client.origin_as, client.city);
  auto options =
      cdn::edge_fabric::rank_by_policy(graph, provider.egress_options(graph, rib, pop));
  PairPlan plan;
  if (options.size() < 2) return plan;
  if (options.size() > static_cast<std::size_t>(top_k)) {
    options.resize(static_cast<std::size_t>(top_k));
  }
  plan.pop = pop;
  plan.prefix = prefix;
  for (const auto& opt : options) {
    auto path = cdn::edge_fabric::egress_path(graph, db, provider.as_index(),
                                              provider.pop(pop), opt, client.city);
    if (!path.valid()) continue;
    EgressRouteInfo info;
    info.neighbor = opt.route.neighbor;
    info.role = opt.route.neighbor_role;
    info.kind = opt.kind;
    info.link = opt.link;
    info.as_path_len = opt.route.length;
    plan.routes.push_back(info);
    plan.paths.push_back(std::move(path));
  }
  if (plan.routes.size() < 2) plan.routes.clear();
  return plan;
}

PopPrefixSeries measure_pop_pair(const PairPlan& plan,
                                 const traffic::ClientPrefix& client,
                                 const std::vector<TimeWindow>& windows,
                                 double popularity, double lon_deg,
                                 const traffic::DemandConfig& demand,
                                 const lat::LatencyModel& latency,
                                 const lat::RttSampler& sampler, const Rng& root,
                                 const PopStudyConfig& config) {
  BGPCMP_CHECK_GE(plan.routes.size(), 2U,
                  "measure_pop_pair needs a BGP route and at least one alternate");
  Rng rng = root.fork("pair-" + std::to_string(plan.prefix) + "-" +
                      std::to_string(plan.pop));
  PopPrefixSeries series;
  series.pop = plan.pop;
  series.prefix = plan.prefix;
  series.routes = plan.routes;
  const std::size_t n_routes = plan.routes.size();
  const std::size_t n_windows = windows.size();
  series.volume.resize(n_windows);
  series.medians.assign(n_routes, std::vector<float>(n_windows));
  series.ci_lower.resize(n_windows);
  series.ci_upper.resize(n_windows);

  std::vector<std::vector<double>> route_samples(n_routes);
  for (std::size_t w = 0; w < n_windows; ++w) {
    const SimTime t = windows[w].midpoint();
    series.volume[w] =
        static_cast<float>(traffic::diurnal_volume(demand, popularity, lon_deg, t).value());
    const int n_sessions = traffic::sample_session_count(config.sessions, popularity, rng);
    for (std::size_t r = 0; r < n_routes; ++r) {
      const auto base =
          latency.rtt(plan.paths[r], t, client.access, client.origin_as, client.city)
              .total();
      auto& samples = route_samples[r];
      samples.clear();
      for (int s = 0; s < n_sessions; ++s) {
        const int rts = traffic::sample_round_trips(config.sessions, rng);
        samples.push_back(sampler.sample_min_rtt(base, rts, rng).value());
      }
      series.medians[r][w] = median_of(samples);
    }
    // CI of (BGP - best alternate) from the sprayed samples.
    std::size_t best_alt = 1;
    for (std::size_t r = 2; r < n_routes; ++r) {
      if (series.medians[r][w] < series.medians[best_alt][w]) best_alt = r;
    }
    const auto ci = stats::bootstrap_median_diff_ci(
        route_samples[0], route_samples[best_alt], rng, config.bootstrap);
    series.ci_lower[w] = static_cast<float>(ci.lower);
    series.ci_upper[w] = static_cast<float>(ci.upper);
  }
  return series;
}

std::vector<PopPrefixSeries> run_pop_pairs(
    const ScaleWorld& world, std::span<const traffic::ClientPrefix> clients,
    traffic::PrefixId first_prefix, std::span<const double> popularity,
    const std::vector<TimeWindow>& windows, const PopStudyConfig& config) {
  BGPCMP_CHECK_EQ(popularity.size(), clients.size(),
                  "one popularity per client prefix");
  const topo::CityDb& db = world.internet.city_db();
  const std::vector<PairPlan> plans = plan_pop_pairs(
      world.internet.graph, db, world.provider, clients, first_prefix, config.top_k_routes);

  // Plans are independent by construction: each forks its own RNG stream
  // keyed by <prefix, pop> and reads only immutable world state (the
  // congestion field's lazy access cache is internally synchronized).
  const lat::RttSampler sampler;
  const Rng root{config.seed};
  return exec::parallel_map(plans.size(), [&](std::size_t p) {
    const PairPlan& plan = plans[p];
    const std::size_t i = plan.prefix - first_prefix;
    const auto& client = clients[i];
    return measure_pop_pair(plan, client, windows, popularity[i],
                            db.at(client.city).location.lon_deg, world.config.demand,
                            world.latency, sampler, root, config);
  });
}

}  // namespace bgpcmp::core
