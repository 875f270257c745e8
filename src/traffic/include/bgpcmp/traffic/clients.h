// Client populations: the prefixes a provider serves.
//
// Each eyeball/stub AS originates one or more /24 client prefixes per metro
// of presence. A prefix carries its geographic location, a user-population
// weight (city weight split across the prefixes there), and a last-mile
// access profile. These are the <prefix> halves of the paper's <PoP, prefix>
// analysis unit and the "weighted /24s" of Fig 4.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgpcmp/bgp/prefix_map.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/netbase/ipaddr.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::traffic {

using topo::AsIndex;
using topo::CityId;
using topo::Internet;

using PrefixId = std::uint32_t;

struct ClientPrefix {
  Prefix prefix;
  AsIndex origin_as = topo::kNoAs;
  CityId city = topo::kNoCity;
  double user_weight = 0.0;
  lat::AccessProfile access;
};

/// Snapshot wire fields (world_snapshot.h), in declaration order.
template <class A>
void fields(A& a, ClientPrefix& c) {
  a(c.prefix, c.origin_as, c.city, c.user_weight, c.access);
}

struct ClientBaseConfig {
  std::uint64_t seed = 7;
  int prefixes_per_eyeball_city = 2;
  bool include_stubs = true;
  double access_base_rtt_min_ms = 3.0;
  double access_base_rtt_max_ms = 16.0;
};

/// The generated client population.
class ClientBase {
 public:
  /// The whole population: every chunk of traffic::ClientStream (the one
  /// generator, client_stream.h) concatenated.
  static ClientBase generate(const Internet& internet, const ClientBaseConfig& config);

  /// Rehydrate a population from deserialized prefixes (core/snapshot.h).
  static ClientBase restore(std::vector<ClientPrefix> prefixes);

  [[nodiscard]] std::span<const ClientPrefix> prefixes() const { return prefixes_; }
  [[nodiscard]] const ClientPrefix& at(PrefixId id) const { return prefixes_.at(id); }
  [[nodiscard]] std::size_t size() const { return prefixes_.size(); }

  /// FIB view of the population: longest-prefix-match from any client
  /// address to its /24's id.
  [[nodiscard]] bgp::PrefixMap<PrefixId> prefix_map() const;

 private:
  std::vector<ClientPrefix> prefixes_;
};

}  // namespace bgpcmp::traffic
