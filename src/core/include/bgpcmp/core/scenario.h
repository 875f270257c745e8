// The standard experiment world: one synthetic Internet with a content
// provider attached, congestion and latency fields (ScaleWorld, the world
// core), plus a client population and its demand (Scenario). Every study,
// bench, and example builds on these, so results across experiments describe
// the same world.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/latency/congestion.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/topology/topology_gen.h"
#include "bgpcmp/traffic/clients.h"
#include "bgpcmp/traffic/demand.h"

namespace bgpcmp::core {

struct ScenarioConfig {
  topo::InternetConfig internet;
  cdn::ProviderConfig provider;
  traffic::ClientBaseConfig clients;
  traffic::DemandConfig demand;
  lat::CongestionConfig congestion;
  lat::LatencyConfig latency;

  /// Derive all component seeds from one master seed (for seed sweeps /
  /// property tests).
  [[nodiscard]] static ScenarioConfig with_master_seed(std::uint64_t seed);

  // Provider presets matching the three studies' settings (§2.3). The
  // default config equals facebook_like().

  /// Study 1: PNI-rich edge provider with dozens of PoPs (Facebook-like).
  [[nodiscard]] static ScenarioConfig facebook_like();
  /// Study 2: 2015-era anycast CDN — a few dozen front-ends, sparser peering
  /// (Microsoft-like), so anycast catchment errors are more common.
  [[nodiscard]] static ScenarioConfig microsoft_like();
  /// Study 3: hyperscale cloud with a large WAN edge (Google-like).
  [[nodiscard]] static ScenarioConfig google_like();
};

/// The world core every study runs against: the Internet with the content
/// provider attached, and the congestion and latency fields over it. Memory
/// scales with the AS graph, never with the client population, so the
/// streaming study (core/scale_study.h) runs on it directly. Heap-allocated
/// so internal pointers stay stable. Non-copyable.
class ScaleWorld {
 public:
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> make(const ScenarioConfig& config = {});

  /// Adopt a pre-built world (e.g. loaded from a topology snapshot) that
  /// does not yet contain the provider AS; attaches the provider exactly
  /// like a fresh build, so the result is byte-identical to make().
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> adopt(ScenarioConfig config, topo::Internet world);

  ScaleWorld(const ScaleWorld&) = delete;
  ScaleWorld& operator=(const ScaleWorld&) = delete;
  /// Virtual: a Scenario owned through a ScaleWorld pointer still frees its
  /// clients and demand.
  virtual ~ScaleWorld() = default;

  topo::Internet internet;
  cdn::ContentProvider provider;
  lat::CongestionField congestion;
  lat::LatencyModel latency;
  ScenarioConfig config;

 protected:
  /// The one construction of the world core. `attached` is a provider
  /// already inside `world` (a snapshot restore); without one the provider
  /// is attached here.
  ScaleWorld(ScenarioConfig cfg, topo::Internet world,
             std::optional<cdn::ContentProvider> attached = std::nullopt);
};

/// The world core plus the materialized client population and its demand
/// model: what the eager studies, the query server and the snapshots use.
class Scenario : public ScaleWorld {
 public:
  BGPCMP_PHASE(build)
  static std::unique_ptr<Scenario> make(const ScenarioConfig& config = {});

  /// Like make(), but sources the Internet from topo::WorldCache::global():
  /// repeated scenarios over the same InternetConfig (seed sweeps, benches,
  /// multiple provider presets on one world) copy a cached snapshot instead
  /// of regenerating it. The determinism audit must keep using make() — it
  /// compares two independent builds by design.
  BGPCMP_PHASE(build)
  static std::unique_ptr<Scenario> make_cached(const ScenarioConfig& config = {});

  /// Rehydrate a scenario from snapshot-loaded parts (core/snapshot.h): the
  /// world already contains the provider AS, and provider/clients were
  /// deserialized rather than re-generated. Demand, congestion, and latency
  /// are cheap derivations and are rebuilt from `config` — their inputs
  /// (clients, graph, seeds) are byte-identical to a fresh build, so the
  /// models are too. Warm phase: this is the load half of a warm start.
  BGPCMP_PHASE(warm)
  static std::unique_ptr<Scenario> restore(ScenarioConfig config, topo::Internet world,
                                           cdn::ContentProvider provider,
                                           traffic::ClientBase clients);

  traffic::ClientBase clients;
  traffic::DemandModel demand;

 private:
  Scenario(ScenarioConfig cfg, topo::Internet world,
           std::optional<cdn::ContentProvider> provider = std::nullopt,
           std::optional<traffic::ClientBase> restored = std::nullopt);
};

}  // namespace bgpcmp::core
