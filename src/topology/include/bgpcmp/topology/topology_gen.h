// Synthetic Internet generator.
//
// Builds a tiered AS-level Internet over the world-city database:
//   * Tier-1 backbones: global presence, full peer mesh, transit-free;
//   * regional transit providers: multi-homed to Tier-1s, peering at IXPs;
//   * eyeball access ISPs: country-scale footprints hosting end users;
//   * stubs: small single/dual-homed networks.
//
// Every knob the reproduction sweeps (peering richness, multihoming, link
// capacities) is an explicit config field. Generation is deterministic in the
// seed.
#pragma once

#include <cstdint>
#include <vector>

#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/as_graph.h"
#include "bgpcmp/topology/city.h"
#include "bgpcmp/topology/ixp.h"

namespace bgpcmp::topo {

struct InternetConfig {
  std::uint64_t seed = 42;

  int tier1_count = 12;
  int transit_count = 56;
  int eyeball_count = 190;
  int stub_count = 110;

  std::size_t ixps_per_region = 8;

  /// Mean number of Tier-1 providers per transit AS (>= 1).
  double transit_tier1_providers_mean = 2.2;
  /// Probability two same-region transits peer at a shared IXP.
  double transit_peer_prob = 0.30;
  /// Mean number of transit providers per eyeball (>= 1).
  double eyeball_transit_providers_mean = 2.0;
  /// Probability an eyeball additionally buys transit from a Tier-1.
  double eyeball_tier1_provider_prob = 0.25;
  /// Probability an eyeball joins the IXPs in its footprint (open peering).
  double eyeball_peering_openness = 0.65;
  /// Probability a stub is dual-homed.
  double stub_dual_home_prob = 0.35;

  // Link capacities in Gbps.
  double tier1_link_capacity = 4000.0;
  double transit_link_capacity = 800.0;
  double eyeball_transit_capacity = 400.0;
  double stub_capacity = 40.0;
};

/// Sentinel in Internet::ixp_by_city for "no IXP in this city".
inline constexpr std::uint32_t kNoIxpSlot = 0xffffffff;

/// A generated Internet: graph plus index lists by class and the IXPs.
struct Internet {
  /// Rebinds to the process-wide CityDb::world() on load; never serialized.
  const CityDb* cities = nullptr;  // lint:allow(D8)
  AsGraph graph;
  std::vector<Ixp> ixps;
  std::vector<AsIndex> tier1s;
  std::vector<AsIndex> transits;
  std::vector<AsIndex> eyeballs;
  std::vector<AsIndex> stubs;
  /// City -> slot into `ixps` (kNoIxpSlot if none). Built by
  /// rebuild_ixp_index(); build_internet calls it before returning. Stale the
  /// moment `ixps` is mutated — rebuild after any such edit.
  std::vector<std::uint32_t> ixp_by_city;  // lint:allow(D8)

  [[nodiscard]] const CityDb& city_db() const { return *cities; }
  /// The IXP hosted in `city`, if any. O(1) once the index is built; falls
  /// back to a scan of `ixps` for hand-assembled instances without one.
  [[nodiscard]] const Ixp* ixp_in(CityId city) const;
  /// Rebuild ixp_by_city from `ixps` (first IXP per city wins, matching the
  /// historical scan order).
  void rebuild_ixp_index();
};

/// Snapshot wire fields (world_snapshot.h), in declaration order.
template <class A>
void fields(A& a, Internet& net) {
  a(net.graph, net.ixps, net.tier1s, net.transits, net.eyeballs, net.stubs);
}

[[nodiscard]] Internet build_internet(const InternetConfig& config);

/// Canonical FNV-1a fingerprint over every structural field of a generated
/// world: nodes (ASN, class, name, hub, inflation, presence, incident edges),
/// edges, links, IXPs with memberships, and the per-class index lists. Two
/// worlds hash equal iff generation was byte-identical — this is what the
/// golden tests and the topology-only determinism-audit scenario pin.
[[nodiscard]] std::uint64_t internet_fingerprint(const Internet& net);

/// FNV-1a over every InternetConfig field EXCEPT the seed, in declaration
/// order. WorldCache keys on (this, seed); keeping the seed out makes the
/// cache key's two halves independent. Adding a config field requires
/// extending this hash — the WorldCacheConfigFingerprint test counts fields
/// as a tripwire.
[[nodiscard]] std::uint64_t internet_config_fingerprint(const InternetConfig& config);

/// Which cities a content provider deploys PoPs in: the `count` highest
/// user-weight IXP cities, spread across regions proportionally to weight.
[[nodiscard]] std::vector<CityId> choose_pop_cities(const Internet& internet,
                                                    std::size_t count, Rng& rng);

}  // namespace bgpcmp::topo
