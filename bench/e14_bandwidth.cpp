// E14 (§3.1's unshown figure): "We find qualitatively similar results for
// bandwidth (not shown)."
//
// Same <PoP, prefix, route> structure as Fig 1, but the metric is what a
// client session experiences: modeled TCP goodput of a 10 MB transfer over
// each route (RTT from the latency model, bottleneck = min(client access
// rate, tightest crossed link's headroom)). CDF of (best alternate - BGP
// preferred) goodput, traffic-weighted. Shape target: mass at 0, mirroring
// Fig 1 — the session bottleneck is shared, so alternates rarely deliver
// more bytes per second.
#include <cstdio>
#include <map>
#include <string>

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/measure/http.h"
#include "bgpcmp/stats/cdf.h"

using namespace bgpcmp;

int main(int argc, char** argv) {
  exec::apply_thread_flag(argc, argv);
  const double days = argc > 1 ? std::stod(argv[1]) : 2.0;
  std::fputs(core::banner("E14: available bandwidth — BGP vs best alternate "
                          "(the paper's unshown figure)")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();

  // Plan routes exactly like the Fig 1 study: from the provider's Adj-RIB-in
  // toward each client's origin.
  struct Plan {
    traffic::PrefixId prefix;
    std::vector<lat::GeoPath> paths;  // [0] = BGP preferred
  };
  std::vector<Plan> plans;
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    const auto& client = scenario->clients.at(id);
    const auto pop = scenario->provider.serving_pop(g, db, client.origin_as,
                                                    client.city);
    const auto rib = bgp::adj_rib_in(g, bgp::OriginSpec::everywhere(client.origin_as),
                                     scenario->provider.as_index());
    auto options = cdn::edge_fabric::rank_by_policy(
        g, scenario->provider.egress_options(g, rib, pop));
    if (options.size() < 2) continue;
    if (options.size() > 3) options.resize(3);
    Plan plan;
    plan.prefix = id;
    for (const auto& opt : options) {
      auto path = cdn::edge_fabric::egress_path(
          g, db, scenario->provider.as_index(), scenario->provider.pop(pop), opt,
          client.city);
      if (path.valid()) plan.paths.push_back(std::move(path));
    }
    if (plan.paths.size() >= 2) plans.push_back(std::move(plan));
  }

  // Per-session goodput of one route: TCP model with the route's RTT and a
  // bottleneck set by the client's access rate or the route's tightest-link
  // headroom, whichever is smaller.
  constexpr double kAccessMbps = 200.0;
  constexpr double kDownloadBytes = 10.0e6;
  auto session_goodput = [&](const Plan& plan, std::size_t r, SimTime t) {
    const auto& client = scenario->clients.at(plan.prefix);
    const auto rtt = scenario->latency
                         .rtt(plan.paths[r], t, client.access, client.origin_as,
                              client.city)
                         .total();
    measure::TcpModelConfig tcp;
    const double headroom_mbps =
        scenario->latency.available_bandwidth(plan.paths[r], t, 400.0).value() *
        1000.0;
    tcp.bottleneck_mbps = std::min(kAccessMbps, headroom_mbps);
    return measure::goodput_mbps(kDownloadBytes, rtt, tcp);
  };

  stats::WeightedCdf diff;  // best alternate - preferred, Mbps
  const auto windows = fifteen_minute_grid(days);
  for (std::size_t w = 0; w < windows.size(); w += 4) {
    const SimTime t = windows[w].midpoint();
    for (const auto& plan : plans) {
      const double volume = scenario->demand.volume(plan.prefix, t).value();
      const double preferred = session_goodput(plan, 0, t);
      double best_alt = 0.0;
      for (std::size_t r = 1; r < plan.paths.size(); ++r) {
        best_alt = std::max(best_alt, session_goodput(plan, r, t));
      }
      diff.add(best_alt - preferred, volume);
    }
  }

  std::printf("<PoP,prefix> pairs: %zu, observations: %zu\n\n", plans.size(),
              diff.count());
  std::fputs("CDF of traffic vs per-session goodput difference (Mbps)\n"
             "[best alternate - BGP preferred]; positive = an alternate "
             "delivers more\n\n",
             stdout);
  std::fputs(core::render_cdfs("diff_mbps", {"cdf"}, {&diff}, -50.0, 50.0, 21)
                 .c_str(),
             stdout);
  std::fputs("\nHeadlines (paper: 'qualitatively similar results for "
             "bandwidth'):\n",
             stdout);
  std::fputs(core::headline("traffic where an alternate adds >= 10 Mbps",
                            100.0 * diff.fraction_above(10.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic where BGP's route delivers >= 10 Mbps more",
                            100.0 * diff.fraction_at_most(-10.0), "%")
                 .c_str(),
             stdout);
  std::fputs(core::headline("traffic within +/- 10 Mbps (comparable goodput)",
                            100.0 * (diff.fraction_at_most(10.0) -
                                     diff.fraction_at_most(-10.0)),
                            "%")
                 .c_str(),
             stdout);
  return 0;
}
