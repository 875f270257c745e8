#include "bgpcmp/core/study_pop.h"

#include <algorithm>

#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/rtt_sampler.h"

namespace bgpcmp::core {

float PopPrefixSeries::diff(std::size_t w) const {
  float best_alt = medians[1][w];
  for (std::size_t r = 2; r < medians.size(); ++r) {
    best_alt = std::min(best_alt, medians[r][w]);
  }
  return medians[0][w] - best_alt;
}

std::vector<TimeWindow> study_windows(const PopStudyConfig& config) {
  const auto grid = fifteen_minute_grid(config.days);
  std::vector<TimeWindow> windows;
  for (std::size_t i = 0; i < grid.size();
       i += static_cast<std::size_t>(std::max(1, config.window_stride))) {
    windows.push_back(grid[i]);
  }
  return windows;
}

PopStudyResult run_pop_study(const Scenario& scenario, const PopStudyConfig& config) {
  const auto& graph = scenario.internet.graph;
  const topo::CityDb& db = scenario.internet.city_db();
  PopStudyResult result;
  result.windows = study_windows(config);

  // Plan every <PoP, prefix> pair with at least two egress routes, from one
  // provider Adj-RIB-in per client origin AS (shared by that AS's prefixes).
  // Each pair reads only the immutable scenario and its origin's RIB, so
  // planning fans out over the pool; under-routed pairs are dropped in order.
  // plan_pop_pairs is shared with the streaming scale study (pop_pair.h).
  const std::vector<PairPlan> plans = plan_pop_pairs(
      graph, db, scenario.provider, scenario.clients.prefixes(), 0, config.top_k_routes);

  // Measure: spray sessions over each route in every window. Plans are
  // independent by construction — each forks its own RNG stream keyed by
  // <prefix, pop> and reads only immutable scenario state (the congestion
  // field's lazy access cache is internally synchronized) — so they fan out
  // over the exec pool, collected in plan order. Output is byte-identical
  // for any thread count; tools/determinism_audit --compare-threads checks.
  const lat::RttSampler sampler;
  const Rng root{config.seed};
  result.series = exec::parallel_map(plans.size(), [&](std::size_t plan_index) {
    const PairPlan& plan = plans[plan_index];
    const auto& client = scenario.clients.at(plan.prefix);
    return measure_pop_pair(plan, client, result.windows,
                            scenario.demand.popularity(plan.prefix),
                            db.at(client.city).location.lon_deg,
                            scenario.config.demand, scenario.latency, sampler, root,
                            config);
  });
  return result;
}

stats::WeightedCdf PopStudyResult::fig1_cdf(Fig1Bound bound) const {
  stats::WeightedCdf cdf;
  for (const auto& s : series) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      double value = s.diff(w);
      if (bound == Fig1Bound::Lower) value = s.ci_lower[w];
      if (bound == Fig1Bound::Upper) value = s.ci_upper[w];
      cdf.add(value, s.volume[w]);
    }
  }
  return cdf;
}

namespace {

/// Weighted CDF of (best class-A median) - (best class-B median) over
/// <pair, window> entries where both classes exist.
template <typename ClassOf>
stats::WeightedCdf class_diff_cdf(const PopStudyResult& result, ClassOf class_of) {
  stats::WeightedCdf cdf;
  for (const auto& s : result.series) {
    std::vector<std::size_t> class_a;
    std::vector<std::size_t> class_b;
    for (std::size_t r = 0; r < s.routes.size(); ++r) {
      const int c = class_of(s.routes[r]);
      if (c == 0) class_a.push_back(r);
      if (c == 1) class_b.push_back(r);
    }
    if (class_a.empty() || class_b.empty()) continue;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      auto best = [&](const std::vector<std::size_t>& idx) {
        float m = s.medians[idx[0]][w];
        for (const auto r : idx) m = std::min(m, s.medians[r][w]);
        return m;
      };
      cdf.add(best(class_a) - best(class_b), s.volume[w]);
    }
  }
  return cdf;
}

}  // namespace

stats::WeightedCdf PopStudyResult::fig2_peer_vs_transit() const {
  return class_diff_cdf(*this, [](const EgressRouteInfo& r) {
    return r.role == topo::NeighborRole::Peer ? 0
           : r.role == topo::NeighborRole::Provider ? 1
                                                    : -1;
  });
}

stats::WeightedCdf PopStudyResult::fig2_private_vs_public() const {
  return class_diff_cdf(*this, [](const EgressRouteInfo& r) {
    if (r.role != topo::NeighborRole::Peer) return -1;
    return r.kind == topo::LinkKind::PrivatePeering ? 0 : 1;
  });
}

double PopStudyResult::improvable_traffic_fraction(double threshold_ms) const {
  double improvable = 0.0;
  double total = 0.0;
  for (const auto& s : series) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      total += s.volume[w];
      if (s.diff(w) >= threshold_ms) improvable += s.volume[w];
    }
  }
  return total > 0.0 ? improvable / total : 0.0;
}

}  // namespace bgpcmp::core
