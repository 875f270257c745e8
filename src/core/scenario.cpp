#include "bgpcmp/core/scenario.h"

#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/world_cache.h"

namespace bgpcmp::core {

ScenarioConfig ScenarioConfig::with_master_seed(std::uint64_t seed) {
  ScenarioConfig cfg;
  Rng root{seed};
  cfg.internet.seed = root.fork("internet").base_seed();
  cfg.provider.seed = root.fork("provider").base_seed();
  cfg.clients.seed = root.fork("clients").base_seed();
  cfg.demand.seed = root.fork("demand").base_seed();
  return cfg;
}

ScenarioConfig ScenarioConfig::facebook_like() { return ScenarioConfig{}; }

ScenarioConfig ScenarioConfig::microsoft_like() {
  ScenarioConfig cfg;
  cfg.provider.name = "MSCDN";
  cfg.provider.asn = 60002;
  cfg.provider.seed = 22;
  // A 2015-era anycast CDN peered far less richly than today's edge
  // providers; sparse interconnection is what makes BGP catchments miss.
  cfg.provider.pni_eyeball_fraction = 0.70;
  cfg.provider.ixp_peer_prob = 0.45;
  cfg.provider.public_session_density = 0.40;
  cfg.provider.pni_max_links = 8;
  cfg.provider.pop_count = 26;
  cfg.provider.transit_session_pops = 6;
  return cfg;
}

ScenarioConfig ScenarioConfig::google_like() {
  ScenarioConfig cfg;
  cfg.provider.name = "CloudX";
  cfg.provider.asn = 60003;
  cfg.provider.seed = 23;
  cfg.provider.pop_count = 64;
  // The §3.3 campaign runs for months; keep congestion events flowing for
  // its whole duration.
  cfg.congestion.horizon_days = 70.0;
  cfg.provider.pni_eyeball_fraction = 0.60;
  cfg.provider.ixp_peer_prob = 0.50;
  cfg.provider.transit_provider_count = 2;
  return cfg;
}

ScaleWorld::ScaleWorld(ScenarioConfig cfg, topo::Internet world,
                       std::optional<cdn::ContentProvider> attached)
    : internet(std::move(world)),
      provider(attached ? std::move(*attached)
                        : cdn::ContentProvider::attach(internet, cfg.provider)),
      congestion(&internet.graph, internet.cities, cfg.congestion,
                 cfg.internet.seed ^ 0x9e3779b97f4a7c15ULL),
      latency(&internet.graph, internet.cities, &congestion, cfg.latency),
      config(std::move(cfg)) {}

std::unique_ptr<ScaleWorld> ScaleWorld::make(const ScenarioConfig& config) {
  return adopt(config, topo::build_internet(config.internet));
}

std::unique_ptr<ScaleWorld> ScaleWorld::adopt(ScenarioConfig config,
                                              topo::Internet world) {
  return std::unique_ptr<ScaleWorld>(new ScaleWorld(std::move(config), std::move(world)));
}

Scenario::Scenario(ScenarioConfig cfg, topo::Internet world,
                   std::optional<cdn::ContentProvider> provider,
                   std::optional<traffic::ClientBase> restored)
    : ScaleWorld(std::move(cfg), std::move(world), std::move(provider)),
      clients(restored ? std::move(*restored)
                       : traffic::ClientBase::generate(internet, config.clients)),
      demand(&clients, internet.cities, config.demand) {}

std::unique_ptr<Scenario> Scenario::restore(ScenarioConfig config, topo::Internet world,
                                            cdn::ContentProvider provider,
                                            traffic::ClientBase clients) {
  return std::unique_ptr<Scenario>(new Scenario(
      std::move(config), std::move(world), std::move(provider), std::move(clients)));
}

std::unique_ptr<Scenario> Scenario::make(const ScenarioConfig& config) {
  return std::unique_ptr<Scenario>(
      new Scenario(config, topo::build_internet(config.internet)));
}

std::unique_ptr<Scenario> Scenario::make_cached(const ScenarioConfig& config) {
  // Copy the immutable snapshot: attaching the provider mutates the graph.
  // The copy inherits the snapshot's pre-warmed CSR edge index and drops it
  // on its first mutation.
  auto world = topo::WorldCache::global().get(config.internet);
  return std::unique_ptr<Scenario>(new Scenario(config, topo::Internet(*world)));
}

}  // namespace bgpcmp::core
