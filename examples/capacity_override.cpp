// Edge Fabric's control loop in action: watch one overloaded interface
// through an evening peak and see which prefixes the controller detours,
// where they land, and what it costs them in latency.
#include <cstdio>
#include <map>

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/cdn/edge_fabric_controller.h"
#include "bgpcmp/core/scenario.h"

using namespace bgpcmp;

int main() {
  auto scenario = core::Scenario::make();
  const auto& g = scenario->internet.graph;
  const auto& db = scenario->internet.city_db();

  // Plan every prefix like the controller bench does: rank the egress
  // options in the provider's Adj-RIB-in toward the client's origin.
  std::vector<cdn::EdgeFabricController::PrefixPlan> plans;
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
    plans.push_back(cdn::EdgeFabricController::PrefixPlan{id, pop, std::move(options)});
  }
  cdn::EdgeFabricController controller{&g, &scenario->demand, plans};

  // Scan a day for the cycle with the most pre-controller overloads.
  SimTime worst_t = SimTime::hours(0);
  std::size_t worst_overloads = 0;
  for (double h = 0; h < 24; h += 0.5) {
    const auto d = controller.run_cycle(SimTime::hours(h));
    if (d.overloaded_links_before > worst_overloads) {
      worst_overloads = d.overloaded_links_before;
      worst_t = SimTime::hours(h);
    }
  }
  const auto decision = controller.run_cycle(worst_t);
  std::printf("peak control cycle at %s: %zu interfaces over the limit before, "
              "%zu after; %.2f%% of traffic detoured\n\n",
              worst_t.str().c_str(), decision.overloaded_links_before,
              decision.overloaded_links_after,
              100.0 * decision.detoured_traffic_fraction);

  // Show the individual detours and their latency cost.
  std::printf("detoured prefixes (first 10):\n");
  int shown = 0;
  for (std::size_t i = 0; i < decision.assignments.size() && shown < 10; ++i) {
    const auto& a = decision.assignments[i];
    if (!a.detoured) continue;
    const auto& plan = controller.plans()[i];
    const auto& client = scenario->clients.at(a.prefix);
    auto rtt_of = [&](std::size_t r) {
      const auto path = cdn::edge_fabric::egress_path(
          g, db, scenario->provider.as_index(), scenario->provider.pop(plan.pop),
          plan.options[r], client.city);
      return scenario->latency
          .rtt(path, worst_t, client.access, client.origin_as, client.city)
          .total()
          .value();
    };
    const auto& from = plan.options[0];
    const auto& to = plan.options[a.route_index];
    std::printf("  %s @%-14s %s->%s  (path RTT %5.1f -> %5.1f ms)\n",
                client.prefix.str().c_str(), db.at(client.city).name.data(),
                g.node(from.route.neighbor).name.c_str(),
                g.node(to.route.neighbor).name.c_str(), rtt_of(0),
                rtt_of(a.route_index));
    ++shown;
  }
  if (shown == 0) std::puts("  (none this cycle)");
  std::puts("\nDetours trade a little latency for staying under capacity — the\n"
            "performance-agnostic story the paper tells about these systems.");
  return 0;
}
