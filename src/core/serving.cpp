#include "bgpcmp/core/serving.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bgpcmp/cdn/edge_fabric.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/snapshot.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/netbase/check.h"
#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::core {
namespace {

/// The warm set: provider first, then client origin ASes by summed demand
/// popularity descending, lower AsIndex on ties; at most `n` origins total
/// (always at least the provider).
std::vector<topo::AsIndex> rank_warm_origins(const Scenario& s, std::size_t n) {
  std::vector<double> weight(s.internet.graph.as_count(), 0.0);
  const auto prefixes = s.clients.prefixes();
  for (traffic::PrefixId id = 0; id < prefixes.size(); ++id)
    weight[prefixes[id].origin_as] += s.demand.popularity(id);

  std::vector<topo::AsIndex> origins;
  for (topo::AsIndex as = 0; as < weight.size(); ++as)
    if (weight[as] > 0.0 && as != s.provider.as_index()) origins.push_back(as);
  std::sort(origins.begin(), origins.end(), [&](topo::AsIndex a, topo::AsIndex b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });

  const std::size_t cap = n == 0 ? 1 : n;
  std::vector<topo::AsIndex> out;
  out.reserve(std::min(cap, origins.size() + 1));
  out.push_back(s.provider.as_index());
  for (const topo::AsIndex as : origins) {
    if (out.size() >= cap) break;
    out.push_back(as);
  }
  return out;
}

/// Popularity-weighted draw: the index whose CDF bucket contains `u`.
std::size_t cdf_pick(std::span<const double> cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

}  // namespace

ServingWorld::ServingWorld(std::unique_ptr<Scenario> scenario, ServingConfig serving)
    : scenario_(std::move(scenario)),
      serving_(serving),
      tables_(&scenario_->internet.graph),
      warmed_(rank_warm_origins(*scenario_, serving.warm_origins)),
      anycast_spec_(bgp::OriginSpec::everywhere(scenario_->provider.as_index())) {
  warm_serving_tables();
  index_prefixes();
}

ServingWorld::ServingWorld(std::unique_ptr<Scenario> scenario,
                           std::vector<topo::AsIndex> warmed,
                           std::vector<bgp::RouteTable> tables)
    : scenario_(std::move(scenario)),
      serving_{warmed.size()},
      tables_(&scenario_->internet.graph),
      warmed_(std::move(warmed)),
      anycast_spec_(bgp::OriginSpec::everywhere(scenario_->provider.as_index())) {
  BGPCMP_CHECK_EQ(warmed_.size(), tables.size(),
                  "every warmed origin needs its snapshot table");
  for (std::size_t i = 0; i < warmed_.size(); ++i)
    tables_.install(warmed_[i], std::move(tables[i]));
  // All slots are installed, so this recomputes nothing (first fill wins) —
  // but both construction paths run it, so detlint's constructor discharge
  // covers every serve-phase read the same way.
  warm_serving_tables();
  index_prefixes();
}

void ServingWorld::warm_serving_tables() {
  tables_.warm(warmed_, exec::global_pool());
}

void ServingWorld::index_prefixes() {
  origin_warmed_.assign(scenario_->internet.graph.as_count(), 0);
  for (const topo::AsIndex as : warmed_) origin_warmed_[as] = 1;

  const auto prefixes = scenario_->clients.prefixes();
  BGPCMP_CHECK(!prefixes.empty(), "serving a world with no client prefixes");
  cum_all_.reserve(prefixes.size());
  double total = 0.0;
  for (traffic::PrefixId id = 0; id < prefixes.size(); ++id) {
    total += scenario_->demand.popularity(id);
    cum_all_.push_back(total);
  }
  double egress_total = 0.0;
  for (traffic::PrefixId id = 0; id < prefixes.size(); ++id) {
    if (!origin_warmed_[prefixes[id].origin_as]) continue;
    egress_total += scenario_->demand.popularity(id);
    egress_prefixes_.push_back(id);
    cum_egress_.push_back(egress_total);
  }
  BGPCMP_CHECK(!egress_prefixes_.empty(),
               "no client prefix originates from a warmed origin");
}

std::unique_ptr<ServingWorld> ServingWorld::build(const ScenarioConfig& config,
                                                  const ServingConfig& serving) {
  return std::unique_ptr<ServingWorld>(
      new ServingWorld(Scenario::make(config), serving));
}

std::unique_ptr<ServingWorld> ServingWorld::load(const std::string& path,
                                                 const ScenarioConfig& config,
                                                 topo::SnapshotVerify verify) {
  ServingState state = load_serving_snapshot(path, config, verify);
  // A loaded graph's CSR index is cold: build it before any batch fans out,
  // so the workers share one index instead of racing to construct it.
  (void)state.scenario->internet.graph.edge_index();
  return std::unique_ptr<ServingWorld>(new ServingWorld(
      std::move(state.scenario), std::move(state.warmed), std::move(state.tables)));
}

void ServingWorld::save(const std::string& path) const {
  save_serving_snapshot(path, *scenario_, warmed_, tables_);
}

std::vector<Query> ServingWorld::generate_queries(std::size_t count,
                                                  std::uint64_t seed) const {
  Rng rng{seed};
  const std::int64_t horizon =
      SimTime::days(scenario_->config.congestion.horizon_days).seconds();
  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.kind = static_cast<Query::Kind>(i % 3);
    if (q.kind == Query::Kind::Egress) {
      const std::size_t pick = cdf_pick(cum_egress_, rng.uniform(0.0, cum_egress_.back()));
      q.prefix = egress_prefixes_[pick];
    } else {
      q.prefix = static_cast<traffic::PrefixId>(
          cdf_pick(cum_all_, rng.uniform(0.0, cum_all_.back())));
    }
    q.t = SimTime{rng.uniform_int(0, horizon - 1)};
    out.push_back(q);
  }
  return out;
}

std::string ServingWorld::answer(const Query& query) const {
  const traffic::ClientPrefix& client = scenario_->clients.at(query.prefix);
  switch (query.kind) {
    case Query::Kind::Latency:
      return answer_latency(client, query);
    case Query::Kind::Egress:
      return answer_egress(client, query);
    case Query::Kind::Catchment:
      return answer_catchment(client, query);
  }
  BGPCMP_CHECK(false, "unknown query kind");
  return {};
}

std::string ServingWorld::answer_catchment(const traffic::ClientPrefix& client,
                                           const Query& query) const {
  const topo::AsGraph& graph = scenario_->internet.graph;
  char buf[160];
  const bgp::RouteTable* table = tables_.find(scenario_->provider.as_index());
  if (table == nullptr || !table->reachable(client.origin_as)) {
    std::snprintf(buf, sizeof buf, "catchment prefix=%u unreachable", query.prefix);
    return buf;
  }
  const std::vector<topo::AsIndex> as_path = table->path(client.origin_as);
  lat::GeoPathOptions opts;
  opts.origin_scope = &anycast_spec_;
  const lat::GeoPath path =
      lat::build_geo_path(graph, *scenario_->internet.cities, as_path, client.city,
                          topo::kNoCity, opts);
  if (!path.valid()) {
    std::snprintf(buf, sizeof buf, "catchment prefix=%u norealization", query.prefix);
    return buf;
  }
  const std::optional<cdn::PopId> pop = scenario_->provider.pop_in(path.entry_city);
  BGPCMP_CHECK(pop.has_value(), "anycast entry link must land at a PoP");
  std::snprintf(buf, sizeof buf,
                "catchment prefix=%u pop=%u entry_city=%u entry_link=%u hops=%zu",
                query.prefix, *pop, static_cast<unsigned>(path.entry_city),
                path.entry_link, as_path.size());
  return buf;
}

std::string ServingWorld::answer_latency(const traffic::ClientPrefix& client,
                                         const Query& query) const {
  const topo::AsGraph& graph = scenario_->internet.graph;
  char buf[160];
  const bgp::RouteTable* table = tables_.find(scenario_->provider.as_index());
  if (table == nullptr || !table->reachable(client.origin_as)) {
    std::snprintf(buf, sizeof buf, "latency prefix=%u unreachable", query.prefix);
    return buf;
  }
  const std::vector<topo::AsIndex> as_path = table->path(client.origin_as);
  lat::GeoPathOptions opts;
  opts.origin_scope = &anycast_spec_;
  const lat::GeoPath path =
      lat::build_geo_path(graph, *scenario_->internet.cities, as_path, client.city,
                          topo::kNoCity, opts);
  if (!path.valid()) {
    std::snprintf(buf, sizeof buf, "latency prefix=%u norealization", query.prefix);
    return buf;
  }
  const std::optional<cdn::PopId> pop = scenario_->provider.pop_in(path.entry_city);
  BGPCMP_CHECK(pop.has_value(), "anycast entry link must land at a PoP");
  const lat::RttBreakdown rtt = scenario_->latency.rtt(
      path, query.t, client.access, client.origin_as, client.city);
  std::snprintf(buf, sizeof buf, "latency prefix=%u pop=%u rtt_ms=%.3f", query.prefix,
                *pop, rtt.total().value());
  return buf;
}

std::string ServingWorld::answer_egress(const traffic::ClientPrefix& client,
                                        const Query& query) const {
  const topo::AsGraph& graph = scenario_->internet.graph;
  const topo::CityDb& cities = *scenario_->internet.cities;
  const cdn::ContentProvider& provider = scenario_->provider;
  char buf[200];
  const cdn::PopId pop =
      provider.serving_pop(graph, cities, client.origin_as, client.city);
  const bgp::RouteTable* table = tables_.find(client.origin_as);
  BGPCMP_CHECK(table != nullptr, "egress queries must target warmed origins");
  const std::vector<cdn::EgressOption> ranked =
      cdn::edge_fabric::rank_by_policy(graph, provider.egress_options(graph, *table, pop));
  if (ranked.empty()) {
    std::snprintf(buf, sizeof buf, "egress prefix=%u pop=%u options=0", query.prefix,
                  pop);
    return buf;
  }
  const cdn::EgressOption& best = ranked.front();
  const lat::GeoPath path = cdn::edge_fabric::egress_path(
      graph, cities, provider.as_index(), provider.pop(pop), best, client.city);
  double best_ms = -1.0;
  if (path.valid()) {
    best_ms = scenario_->latency
                  .rtt(path, query.t, client.access, client.origin_as, client.city)
                  .total()
                  .value();
  }
  std::snprintf(buf, sizeof buf,
                "egress prefix=%u pop=%u options=%zu best_kind=%u best_len=%u "
                "best_nh=%u rtt_ms=%.3f",
                query.prefix, pop, ranked.size(), static_cast<unsigned>(best.kind),
                static_cast<unsigned>(best.route.length), best.route.neighbor, best_ms);
  return buf;
}

std::vector<std::string> QueryServer::answer_batch(
    std::span<const Query> queries) const {
  std::vector<std::string> out(queries.size());
  exec::parallel_chunks(*pool_, queries.size(), chunk_,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            out[i] = world_->answer(queries[i]);
                        });
  return out;
}

std::uint64_t answers_digest(std::span<const std::string> answers) {
  std::string joined;
  std::size_t bytes = 0;
  for (const std::string& a : answers) bytes += a.size() + 1;
  joined.reserve(bytes);
  for (const std::string& a : answers) {
    if (!joined.empty()) joined.push_back('\n');
    joined.append(a);
  }
  return fnv1a64(joined);
}

}  // namespace bgpcmp::core
