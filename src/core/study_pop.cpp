#include "bgpcmp/core/study_pop.h"

#include <algorithm>

#include "bgpcmp/core/pop_pair.h"

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
  // Every <PoP, prefix> pair with at least two egress routes, planned from
  // one provider Adj-RIB-in per client origin AS and measured across the
  // pool: the kernel the streaming scale study runs per chunk (pop_pair.h).
  PopStudyResult result;
  result.windows = study_windows(config);
  result.series = run_pop_pairs(scenario, scenario.clients.prefixes(), 0,
                                scenario.demand.popularities(), result.windows, config);
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
