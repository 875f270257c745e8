// BGP route representation and per-origin routing tables.
//
// We compute, for one origin (destination) at a time, the route every AS in
// the graph selects under Gao-Rexford policy: prefer customer-learned over
// peer-learned over provider-learned (the LocalPref convention), then
// shortest AS path (including prepending), then lowest next-hop ASN. The
// table stores each AS's best route; full AS paths are reconstructed by
// chaining next hops, which is consistent because every AS exports exactly
// the route it uses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/topology/as_graph.h"

namespace bgpcmp::bgp {

using topo::AsGraph;
using topo::AsIndex;
using topo::EdgeId;
using topo::kNoAs;
using topo::kNoEdge;

/// How a route was learned, in decreasing order of preference.
enum class RouteClass : std::uint8_t {
  None,      ///< unreachable
  Origin,    ///< this AS originates the prefix
  Customer,  ///< learned from a customer (highest LocalPref)
  Peer,      ///< learned from a settlement-free peer
  Provider,  ///< learned from a transit provider (lowest LocalPref)
};

[[nodiscard]] std::string_view route_class_name(RouteClass c);

/// Preference rank: smaller is better. Origin beats everything.
[[nodiscard]] constexpr int route_class_rank(RouteClass c) {
  switch (c) {
    case RouteClass::Origin: return 0;
    case RouteClass::Customer: return 1;
    case RouteClass::Peer: return 2;
    case RouteClass::Provider: return 3;
    case RouteClass::None: return 4;
  }
  return 4;
}

/// The route an AS selected toward the origin.
struct BestRoute {
  RouteClass cls = RouteClass::None;
  std::uint16_t length = 0;    ///< BGP path length incl. prepending
  AsIndex next_hop = kNoAs;    ///< neighbor the route was learned from
  EdgeId via_edge = kNoEdge;   ///< edge to that neighbor

  [[nodiscard]] bool reachable() const { return cls != RouteClass::None; }
};

/// Snapshot wire fields (world_snapshot.h), in declaration order.
template <class A>
void fields(A& a, BestRoute& r) { a(r.cls, r.length, r.next_hop, r.via_edge); }

/// Per-origin routing table: one BestRoute per AS in the graph.
class RouteTable {
 public:
  RouteTable(const AsGraph* graph, AsIndex origin, std::vector<BestRoute> routes)
      : graph_(graph), origin_(origin), routes_(std::move(routes)) {}

  [[nodiscard]] AsIndex origin() const { return origin_; }
  [[nodiscard]] const AsGraph& graph() const { return *graph_; }
  // at/set/reachable are the innermost reads of every study and of the churn
  // engine's patch loop: a diagnosable bounds check plus unchecked indexing
  // replaces vector::at's throwing check (same guarantee, better message, and
  // the [[unlikely]] branch keeps the hot path straight-line).
  [[nodiscard]] const BestRoute& at(AsIndex as) const {
    BGPCMP_CHECK_LT(as, routes_.size(), "AS index outside route table");
    return routes_[as];
  }
  /// Overwrite one AS's selected route. Reserved for the churn engine's
  /// incremental re-convergence (churn.h), which patches only the frontier a
  /// delta touched; study code treats tables as immutable.
  void set(AsIndex as, const BestRoute& route) {
    BGPCMP_CHECK_LT(as, routes_.size(), "AS index outside route table");
    routes_[as] = route;
  }
  [[nodiscard]] bool reachable(AsIndex as) const { return at(as).reachable(); }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  /// Every AS's row, by AS index.
  [[nodiscard]] std::span<const BestRoute> routes() const { return routes_; }

  /// AS-level forwarding path [from, ..., origin]. Empty if unreachable.
  [[nodiscard]] std::vector<AsIndex> path(AsIndex from) const;

 private:
  const AsGraph* graph_;
  AsIndex origin_;
  std::vector<BestRoute> routes_;
};

}  // namespace bgpcmp::bgp
