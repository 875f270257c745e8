// E11 (extension; §2.2/§3.1 context): what Edge Fabric actually buys.
//
// The §3.1 dataset compares BGP against an omniscient latency oracle and
// finds little headroom. But Edge Fabric was not built to chase latency — it
// keeps egress interfaces below capacity. This bench runs three egress
// policies over the same two days of demand:
//
//   static-bgp    always BGP's preferred route (no controller);
//   edge-fabric   capacity-aware detouring (the real system's loop);
//   oracle        per-window latency minimizer (the paper's comparator).
//
// Latency accounting includes the self-induced queueing of whatever load each
// policy puts on each interface, so overloading the preferred PNI hurts.
#include <cstdio>
#include <map>
#include <string>

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/cdn/edge_fabric_controller.h"
#include "bgpcmp/core/report.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/stats/cdf.h"
#include "bgpcmp/stats/table.h"

using namespace bgpcmp;

namespace {

struct PolicyStats {
  stats::WeightedCdf rtt;
  double rtt_weighted_sum = 0.0;
  double weight_sum = 0.0;
  std::size_t overloaded_link_windows = 0;
  double detoured_fraction_sum = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  exec::apply_thread_flag(argc, argv);
  const double days = argc > 1 ? std::stod(argv[1]) : 2.0;
  std::fputs(core::banner("E11: static BGP vs Edge Fabric vs latency oracle")
                 .c_str(),
             stdout);
  auto scenario = core::Scenario::make();
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();

  // Plan every prefix like the Fig 1 study: rank the egress options the
  // provider hears toward the client's origin (its Adj-RIB-in), then realize
  // each option's path.
  std::vector<cdn::EdgeFabricController::PrefixPlan> plans;
  std::vector<std::vector<lat::GeoPath>> paths;  // parallel to plans
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    const auto& client = scenario->clients.at(id);
    const auto pop = scenario->provider.serving_pop(g, db, client.origin_as,
                                                    client.city);
    const auto rib = bgp::adj_rib_in(g, bgp::OriginSpec::everywhere(client.origin_as),
                                     scenario->provider.as_index());
    auto options = cdn::edge_fabric::rank_by_policy(
        g, scenario->provider.egress_options(g, rib, pop));
    if (options.empty()) continue;
    if (options.size() > 3) options.resize(3);
    cdn::EdgeFabricController::PrefixPlan plan;
    plan.prefix = id;
    plan.pop = pop;
    std::vector<lat::GeoPath> plan_paths;
    for (const auto& opt : options) {
      auto path = cdn::edge_fabric::egress_path(
          g, db, scenario->provider.as_index(), scenario->provider.pop(pop), opt,
          client.city);
      if (!path.valid()) continue;
      plan.options.push_back(opt);
      plan_paths.push_back(std::move(path));
    }
    if (plan.options.empty()) continue;
    plans.push_back(std::move(plan));
    paths.push_back(std::move(plan_paths));
  }
  std::printf("prefixes planned: %zu\n\n", plans.size());

  cdn::EdgeFabricController controller{&g, &scenario->demand, plans};
  const auto& cplans = controller.plans();
  const double limit = 0.95;

  PolicyStats stats_bgp;
  PolicyStats stats_ef;
  PolicyStats stats_oracle;
  const auto windows = fifteen_minute_grid(days);

  for (std::size_t w = 0; w < windows.size(); w += 2) {
    const SimTime t = windows[w].midpoint();
    std::vector<double> volume(cplans.size());
    std::vector<double> base(cplans.size() * 3, 0.0);  // rtt per (plan, option)
    for (std::size_t i = 0; i < cplans.size(); ++i) {
      const auto& client = scenario->clients.at(cplans[i].prefix);
      volume[i] = scenario->demand.volume(cplans[i].prefix, t).value();
      for (std::size_t r = 0; r < cplans[i].options.size(); ++r) {
        base[i * 3 + r] = scenario->latency
                              .rtt(paths[i][r], t, client.access,
                                   client.origin_as, client.city)
                              .total()
                              .value();
      }
    }

    // Choice per policy: option index per plan.
    const auto ef_decision = controller.run_cycle(t);
    auto evaluate = [&](auto choose, PolicyStats& out, double* detoured) {
      std::map<topo::LinkId, double> load;
      std::vector<std::size_t> choice(cplans.size());
      double moved = 0.0;
      double total = 0.0;
      for (std::size_t i = 0; i < cplans.size(); ++i) {
        choice[i] = choose(i);
        load[cplans[i].options[choice[i]].link] += volume[i];
        total += volume[i];
        if (choice[i] != 0) moved += volume[i];
      }
      // Self-induced queueing on each interface.
      std::map<topo::LinkId, double> extra;
      for (const auto& [link, bytes] : load) {
        const double util =
            bytes / (g.link(link).capacity.value() * controller.bytes_per_gbps());
        extra[link] =
            lat::queueing_delay(util, scenario->congestion.config()).value();
        if (util > limit) ++out.overloaded_link_windows;
      }
      for (std::size_t i = 0; i < cplans.size(); ++i) {
        const auto link = cplans[i].options[choice[i]].link;
        const double ms = base[i * 3 + choice[i]] + extra[link];
        out.rtt.add(ms, volume[i]);
        out.rtt_weighted_sum += ms * volume[i];
        out.weight_sum += volume[i];
      }
      if (detoured != nullptr && total > 0.0) *detoured += moved / total;
    };

    evaluate([](std::size_t) { return std::size_t{0}; }, stats_bgp, nullptr);
    evaluate(
        [&](std::size_t i) { return ef_decision.assignments[i].route_index; },
        stats_ef, &stats_ef.detoured_fraction_sum);
    evaluate(
        [&](std::size_t i) {
          std::size_t best = 0;
          for (std::size_t r = 1; r < cplans[i].options.size(); ++r) {
            if (base[i * 3 + r] < base[i * 3 + best]) best = r;
          }
          return best;
        },
        stats_oracle, &stats_oracle.detoured_fraction_sum);
  }

  const double n_windows = static_cast<double>((windows.size() + 1) / 2);
  stats::Table table{{"policy", "mean RTT", "p50", "p99", "overloaded link-windows",
                      "traffic off preferred"}};
  auto row = [&](const char* name, PolicyStats& s) {
    const double mean = s.weight_sum > 0.0 ? s.rtt_weighted_sum / s.weight_sum : 0.0;
    table.add_row({name, stats::fmt(mean, 2) + " ms",
                   stats::fmt(s.rtt.quantile(0.5), 2) + " ms",
                   stats::fmt(s.rtt.quantile(0.99), 2) + " ms",
                   std::to_string(s.overloaded_link_windows),
                   stats::fmt(100.0 * s.detoured_fraction_sum / n_windows, 2) + "%"});
  };
  row("static-bgp", stats_bgp);
  row("edge-fabric", stats_ef);
  row("oracle-latency", stats_oracle);
  std::fputs(table.render().c_str(), stdout);

  std::fputs("\nReading: Edge Fabric's job is the overload column, not the "
             "latency columns — matching the paper's claim that the latency "
             "gap between BGP and even an omniscient oracle is small.\n",
             stdout);
  return 0;
}
