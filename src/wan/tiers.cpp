#include "bgpcmp/wan/tiers.h"

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::wan {

namespace {

std::vector<CityId> pop_cities(const ContentProvider& provider) {
  std::vector<CityId> out;
  out.reserve(provider.pops().size());
  for (const auto& p : provider.pops()) out.push_back(p.city);
  return out;
}

}  // namespace

CloudTiers::CloudTiers(const Internet* internet, const ContentProvider* provider,
                       const CloudTiersConfig& config)
    : internet_(internet),
      provider_(provider),
      backbone_(internet->cities, pop_cities(*provider), config.backbone) {
  const auto dc_metro = internet_->city_db().find(config.dc_city);
  BGPCMP_CHECK(dc_metro, "dc_city must exist in the city database");
  dc_pop_ = provider_->nearest_pop(internet_->city_db(), *dc_metro);
  dc_city_ = provider_->pop(dc_pop_).city;

  premium_spec_ = bgp::OriginSpec::everywhere(provider_->as_index());
  standard_spec_ =
      bgp::OriginSpec::scoped(provider_->as_index(), provider_->pop(dc_pop_).links);
  // The two tier tables are independent: build the CSR index once up front,
  // then compute them across the pool (index-addressed, so byte-identical at
  // any width — see docs/PARALLELISM.md warm-then-plan).
  (void)internet_->graph.edge_index();
  auto built = exec::parallel_map(2, [&](std::size_t i) {
    return bgp::compute_routes(internet_->graph,
                               i == 0 ? premium_spec_ : standard_spec_);
  });
  premium_table_ = std::move(built[0]);
  standard_table_ = std::move(built[1]);
}

TierRoute CloudTiers::realize(const bgp::RouteTable& table,
                              const bgp::OriginSpec& spec,
                              const traffic::ClientPrefix& client,
                              bool backhaul_on_wan) const {
  TierRoute out;
  if (!table.reachable(client.origin_as)) return out;
  const auto as_path = table.path(client.origin_as);
  lat::GeoPathOptions opts;
  opts.origin_scope = &spec;
  // The access path terminates where traffic enters the cloud network.
  out.access_path = lat::build_geo_path(internet_->graph, internet_->city_db(),
                                        as_path, client.city, topo::kNoCity, opts);
  if (!out.access_path.valid()) return out;

  const auto entry_pop = provider_->pop_in(out.access_path.entry_city);
  BGPCMP_CHECK(entry_pop, "cloud entry must land at a PoP");
  out.entry_pop = *entry_pop;
  out.intermediate_ases = static_cast<int>(as_path.size()) - 2;
  out.direct_entry = out.intermediate_ases == 0;

  if (backhaul_on_wan) {
    const auto wan = backbone_.transit_time(out.access_path.entry_city, dc_city_);
    if (!wan) return TierRoute{};  // edge site unreachable: no premium service
    out.wan_rtt = *wan * 2.0;
  } else {
    // Standard tier enters at the DC PoP itself; no WAN leg.
    BGPCMP_CHECK_EQ(out.access_path.entry_city, dc_city_,
                    "standard-tier access path must enter at the DC city");
  }
  return out;
}

TierRoute CloudTiers::premium(const traffic::ClientPrefix& client) const {
  return realize(*premium_table_, premium_spec_, client, /*backhaul_on_wan=*/true);
}

TierRoute CloudTiers::standard(const traffic::ClientPrefix& client) const {
  return realize(*standard_table_, standard_spec_, client, /*backhaul_on_wan=*/false);
}

Milliseconds CloudTiers::rtt(const TierRoute& route, const lat::LatencyModel& latency,
                             SimTime t, const traffic::ClientPrefix& client) const {
  BGPCMP_CHECK(route.valid(), "cannot compute the RTT of an invalid tier route");
  const auto access =
      latency.rtt(route.access_path, t, client.access, client.origin_as, client.city);
  return access.total() + route.wan_rtt;
}

Kilometers CloudTiers::ingress_distance(const TierRoute& route,
                                        const traffic::ClientPrefix& client) const {
  BGPCMP_CHECK(route.valid(),
               "cannot measure ingress distance of an invalid tier route");
  return internet_->city_db().distance(client.city, route.access_path.entry_city);
}

}  // namespace bgpcmp::wan
