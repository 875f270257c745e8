// Study-2-style anycast CDN walkthrough: build a 2015-era CDN, inspect a
// client's catchment vs its best front-end, run DNS redirection for its
// resolver cluster, and summarize who anycast fails.
#include <cstdio>
#include <utility>
#include <vector>

#include "bgpcmp/cdn/dns_redirect.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/stats/cdf.h"

using namespace bgpcmp;

int main() {
  auto scenario = core::Scenario::make(core::ScenarioConfig::microsoft_like());
  const topo::CityDb& db = scenario->internet.city_db();
  cdn::AnycastCdn cdn{&scenario->internet, &scenario->provider};
  cdn::OdinBeacons beacons{&cdn, &scenario->latency, &scenario->clients};
  std::printf("Anycast CDN '%s': %zu front-ends\n\n",
              scenario->provider.config().name.c_str(),
              scenario->provider.pops().size());

  // Survey every client once: catchment quality.
  Rng rng{2024};
  const SimTime t = SimTime::hours(14);
  std::vector<stats::Weighted> gap_obs;
  traffic::PrefixId worst_client = 0;
  double worst_gap = -1.0;
  for (traffic::PrefixId id = 0; id < scenario->clients.size(); ++id) {
    cdn::BeaconResult r;
    if (!beacons.measure(id, t, rng, r)) continue;
    const double gap = r.anycast.value() - r.best_unicast().value();
    gap_obs.push_back({gap, scenario->clients.at(id).user_weight});
    if (gap > worst_gap) {
      worst_gap = gap;
      worst_client = id;
    }
  }
  const stats::WeightedCdf gaps{std::move(gap_obs)};
  std::printf("anycast within 10 ms of best unicast: %5.1f%% of users\n",
              100.0 * gaps.fraction_at_most(10.0));
  std::printf("anycast >= 50 ms worse:               %5.1f%% of users\n\n",
              100.0 * gaps.fraction_above(50.0));

  // Zoom into the worst-served client.
  const auto& client = scenario->clients.at(worst_client);
  const auto route = cdn.anycast_route(client);
  cdn::BeaconResult beacon;
  (void)beacons.measure(worst_client, t, rng, beacon);
  std::printf("worst-served client: %s in %s (%s)\n", client.prefix.str().c_str(),
              db.at(client.city).name.data(), db.at(client.city).country.data());
  std::printf("  BGP anycast lands at %-14s  %7.1f ms\n",
              db.at(scenario->provider.pop(route.pop).city).name.data(),
              beacon.anycast.value());
  std::printf("  best unicast is      %-14s  %7.1f ms\n",
              db.at(scenario->provider.pop(beacon.best_unicast_pop()).city)
                  .name.data(),
              beacon.best_unicast().value());
  std::printf("  AS path: ");
  for (const auto as : route.path.as_path) {
    std::printf("%s ", scenario->internet.graph.node(as).name.c_str());
  }
  std::printf("\n\n");

  // What would DNS redirection do for this client's resolver cluster?
  cdn::DnsRedirector redirector{&cdn, &beacons, &scenario->clients};
  const auto clusters = redirector.build_clusters();
  for (const auto& cluster : clusters) {
    const bool has = std::find(cluster.members.begin(), cluster.members.end(),
                               worst_client) != cluster.members.end();
    if (!has) continue;
    Rng drng{7};
    const auto decision = redirector.decide(cluster, t, drng);
    std::printf("its LDNS cluster (%zu client /24s, %s resolver) decides: %s\n",
                cluster.members.size(),
                cluster.public_resolver ? "public" : "ISP",
                decision.use_unicast
                    ? db.at(scenario->provider.pop(decision.pop).city).name.data()
                    : "stay on anycast");
    break;
  }
  std::puts("\nNote how the cluster-wide decision may or may not match what "
            "this particular client needed — the Fig 4 effect.");
  return 0;
}
