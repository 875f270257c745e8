#include "bgpcmp/core/footprint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "bgpcmp/stats/cdf.h"

namespace bgpcmp::core {

FootprintResult run_footprint_ablation(const ScenarioConfig& base,
                                       const FootprintConfig& config,
                                       std::span<const double> fractions) {
  FootprintResult result;
  for (const double fraction : fractions) {
    ScenarioConfig cfg = base;
    cfg.provider.pni_eyeball_fraction *= fraction;
    cfg.provider.ixp_peer_prob *= fraction;
    auto scenario = Scenario::make(cfg);

    // Count the provider's surviving peering edges and concentrate the load
    // shed by removed peers onto every surviving provider link.
    const auto& graph = scenario->internet.graph;
    const topo::AsIndex cp = scenario->provider.as_index();
    std::size_t peer_edges = 0;
    const double load_scale = 1.0 + config.load_shift * (1.0 - fraction);
    for (const auto e : graph.edges_of(cp)) {
      if (graph.role_of_other(e, cp) == topo::NeighborRole::Peer) ++peer_edges;
      for (const auto l : graph.edge(e).links) {
        scenario->congestion.set_load_scale(l, load_scale);
      }
    }

    const auto study = run_pop_study(*scenario, config.study);

    FootprintPoint point;
    point.peering_fraction = fraction;
    point.provider_peer_edges = peer_edges;
    point.improvable_frac_5ms = study.improvable_traffic_fraction(5.0);

    std::vector<stats::Weighted> rtt_obs;
    double transit_traffic = 0.0;
    double total_traffic = 0.0;
    for (const auto& s : study.series) {
      const bool transit_preferred =
          s.routes[0].role == topo::NeighborRole::Provider;
      for (std::size_t w = 0; w < study.windows.size(); ++w) {
        rtt_obs.push_back({s.medians[0][w], s.volume[w]});
        total_traffic += s.volume[w];
        if (transit_preferred) transit_traffic += s.volume[w];
      }
    }
    const stats::WeightedCdf bgp_rtts{std::move(rtt_obs)};
    if (!bgp_rtts.empty()) {
      // Traffic-weighted mean.
      double sum = 0.0;
      for (const auto& s : study.series) {
        for (std::size_t w = 0; w < study.windows.size(); ++w) {
          sum += static_cast<double>(s.medians[0][w]) * s.volume[w];
        }
      }
      point.mean_bgp_rtt_ms = total_traffic > 0.0 ? sum / total_traffic : 0.0;
      point.p95_bgp_rtt_ms = bgp_rtts.quantile(0.95);
    }
    point.transit_preferred_fraction =
        total_traffic > 0.0 ? transit_traffic / total_traffic : 0.0;
    result.points.push_back(point);
  }
  return result;
}

}  // namespace bgpcmp::core
