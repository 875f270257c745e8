// Content provider attachment: PoPs, peering footprint, egress options.
//
// Models the serving side of all three studies: a provider AS with PoPs in
// major metros, private interconnects (PNIs) into colocated eyeballs, public
// peering across IXPs, and Tier-1 transit — the "invest to align policy,
// capacity, and performance" infrastructure of §3.1.2.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/build_util.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::cdn {

using topo::AsIndex;
using topo::CityId;
using topo::Internet;
using topo::LinkId;
using topo::LinkKind;

using PopId = std::uint32_t;
inline constexpr PopId kNoPop = 0xffffffff;

/// A point of presence: a serving location plus the interconnections there.
struct Pop {
  PopId id = kNoPop;
  CityId city = topo::kNoCity;
  std::vector<LinkId> links;  ///< provider links landed at this PoP
};

struct ProviderConfig {
  std::uint64_t seed = 21;
  std::string name = "CP";
  std::uint32_t asn = 60001;
  std::size_t pop_count = 34;
  /// Extra PoP metros (by city name) appended to the auto-chosen set —
  /// the site-addition ablation's hook (E15). Unknown names are ignored.
  std::vector<std::string_view> extra_pop_cities;
  /// Fraction of eyeballs colocated at a PoP metro that get a PNI.
  double pni_eyeball_fraction = 0.85;
  /// Probability of publicly peering with a colocated eyeball at the PoP's
  /// IXP (if no PNI).
  double ixp_peer_prob = 0.60;
  /// Transit networks peer with content far more selectively (content is a
  /// prospective customer); their open-peering probability is scaled by this.
  double transit_peer_scale = 0.4;
  /// Given an open-peering relationship, the probability a session exists at
  /// each shared exchange metro (2015-era CDNs were far sparser than today's).
  double public_session_density = 0.85;
  /// Max metros a PNI lands in.
  std::size_t pni_max_links = 16;
  /// Tier-1 transit contracts.
  int transit_provider_count = 3;
  /// PoP metros where transit sessions land (0 = every PoP). 2015-era CDNs
  /// landed transit at a handful of major sites, so transit-carried anycast
  /// traffic could enter far from the client.
  std::size_t transit_session_pops = 0;
  double pni_capacity_gbps = 200.0;
  double public_capacity_gbps = 80.0;
  double transit_capacity_gbps = 300.0;
  double backbone_inflation = 1.12;  ///< provider WANs are well built
};

/// One egress possibility at a PoP: a BGP candidate route plus the concrete
/// link it would leave through and that link's kind.
struct EgressOption {
  bgp::CandidateRoute route;
  LinkId link = topo::kNoLink;
  LinkKind kind = LinkKind::Transit;
};

class ContentProvider {
 public:
  /// Create the provider AS inside `internet` (mutates the graph) and land
  /// its interconnections at the chosen PoPs.
  static ContentProvider attach(Internet& internet, const ProviderConfig& config);

  /// Rehydrate a provider whose AS, edges, and PoP links already live in a
  /// deserialized world (core/snapshot.h): no graph mutation, just the
  /// provider-side bookkeeping. `config` comes from the caller — snapshots
  /// never store configs (extra_pop_cities holds non-owning string_views) —
  /// and is fingerprint-checked against the file before this runs.
  static ContentProvider restore(AsIndex as, std::vector<Pop> pops,
                                 const ProviderConfig& config);

  [[nodiscard]] AsIndex as_index() const { return as_; }
  [[nodiscard]] std::span<const Pop> pops() const { return pops_; }
  [[nodiscard]] const Pop& pop(PopId id) const { return pops_.at(id); }
  [[nodiscard]] const ProviderConfig& config() const { return config_; }

  /// The PoP in a city, if any.
  [[nodiscard]] std::optional<PopId> pop_in(CityId city) const;
  /// The PoP geographically nearest to a city.
  [[nodiscard]] PopId nearest_pop(const topo::CityDb& cities, CityId city) const;

  /// The PoP the provider's DNS mapping serves this client from: the nearest
  /// PoP where the client's access AS has a direct session (providers steer
  /// clients toward well-connected sites, §2.2), falling back to the
  /// geographically nearest PoP when no such site is competitive (within
  /// 1.5x the nearest distance + 300 km).
  [[nodiscard]] PopId serving_pop(const topo::AsGraph& graph,
                                  const topo::CityDb& cities,
                                  topo::AsIndex client_as, CityId client_city) const;

  /// Egress options at a PoP from the provider's Adj-RIB-in toward one
  /// origin (`rib`: the candidates the provider AS hears, as bgp::adj_rib_in
  /// or bgp::candidate_routes_at return them): every candidate route whose
  /// session has a link landed at this PoP, in `rib` order. A candidate with
  /// both a PNI and a public session at the PoP contributes its best
  /// (private) link only.
  [[nodiscard]] std::vector<EgressOption> egress_options(
      const topo::AsGraph& graph, std::span<const bgp::CandidateRoute> rib,
      PopId pop) const;

  /// Same, reading the provider's candidates off a full route table.
  [[nodiscard]] std::vector<EgressOption> egress_options(
      const topo::AsGraph& graph, const bgp::RouteTable& table, PopId pop) const;

 private:
  AsIndex as_ = topo::kNoAs;
  std::vector<Pop> pops_;
  ProviderConfig config_;
};

}  // namespace bgpcmp::cdn
