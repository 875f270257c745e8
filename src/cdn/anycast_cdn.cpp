#include "bgpcmp/cdn/anycast_cdn.h"

#include <algorithm>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::cdn {

AnycastCdn::AnycastCdn(const Internet* internet, const ContentProvider* provider)
    : internet_(internet), provider_(provider) {
  warm_unicast_tables();
  set_anycast_spec(bgp::OriginSpec::everywhere(provider_->as_index()));
}

void AnycastCdn::warm_unicast_tables() {
  const std::size_t n = provider_->pops().size();
  unicast_specs_.clear();
  unicast_specs_.reserve(n);
  for (PopId pop = 0; pop < n; ++pop) {
    unicast_specs_.push_back(
        bgp::OriginSpec::scoped(provider_->as_index(), provider_->pop(pop).links));
  }
  // Build the CSR index before the fan-out so the workers share one snapshot
  // (warm-then-plan, docs/PARALLELISM.md); tables land in per-PoP slots.
  (void)internet_->graph.edge_index();
  unicast_tables_ = exec::parallel_map(n, [this](std::size_t pop) {
    return bgp::compute_routes(internet_->graph, unicast_specs_[pop]);
  });
}

void AnycastCdn::set_anycast_spec(bgp::OriginSpec spec) {
  BGPCMP_CHECK(spec.origin == provider_->as_index(),
               "anycast spec must originate at the provider");
  anycast_spec_ = std::move(spec);
  anycast_table_ = bgp::compute_routes(internet_->graph, anycast_spec_);
}

AnycastCdn::AnycastRoute AnycastCdn::anycast_route(
    const traffic::ClientPrefix& client) const {
  AnycastRoute out;
  if (!anycast_table_->reachable(client.origin_as)) return out;
  const auto as_path = anycast_table_->path(client.origin_as);
  lat::GeoPathOptions opts;
  opts.origin_scope = &anycast_spec_;
  out.path = lat::build_geo_path(internet_->graph, internet_->city_db(), as_path,
                                 client.city, topo::kNoCity, opts);
  if (!out.path.valid()) return out;
  const auto pop = provider_->pop_in(out.path.entry_city);
  BGPCMP_CHECK(pop, "anycast entry link must land at a PoP");
  out.pop = *pop;
  return out;
}

void AnycastCdn::set_failed_pops(std::set<PopId> failed) {
  failed_pops_ = std::move(failed);
}

lat::GeoPath AnycastCdn::unicast_route(const traffic::ClientPrefix& client,
                                       PopId pop) const {
  if (failed_pops_.contains(pop)) return {};  // dead front-end: no answers
  const bgp::RouteTable& table = unicast_tables_.at(pop);
  if (!table.reachable(client.origin_as)) return {};
  const auto as_path = table.path(client.origin_as);
  lat::GeoPathOptions opts;
  opts.origin_scope = &unicast_specs_[pop];
  return lat::build_geo_path(internet_->graph, internet_->city_db(), as_path,
                             client.city, provider_->pop(pop).city, opts);
}

std::vector<PopId> AnycastCdn::nearby_front_ends(const traffic::ClientPrefix& client,
                                                 std::size_t count) const {
  const topo::CityDb& db = internet_->city_db();
  std::vector<PopId> pops;
  pops.reserve(provider_->pops().size());
  for (const Pop& p : provider_->pops()) pops.push_back(p.id);
  std::sort(pops.begin(), pops.end(), [&](PopId a, PopId b) {
    const double da = db.distance(provider_->pop(a).city, client.city).value();
    const double dbm = db.distance(provider_->pop(b).city, client.city).value();
    if (da != dbm) return da < dbm;
    return a < b;
  });
  if (pops.size() > count) pops.resize(count);
  return pops;
}

}  // namespace bgpcmp::cdn
