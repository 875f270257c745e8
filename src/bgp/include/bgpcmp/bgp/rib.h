// Adj-RIB-in reconstruction: the full set of routes a given AS *hears* from
// its neighbors toward an origin.
//
// The PoP study needs more than each AS's best route: at a content-provider
// PoP, BGP chooses among the routes announced by every connected peer and
// transit, and the measurement system sprays traffic over the top-k of them
// (§3.1). A neighbor exports its selected route to the viewer iff the viewer
// is its customer, or the route is a customer/own route (standard export
// policy). Two functions return that candidate set, entry for entry:
//
//   * candidate_routes_at reads it off a full route table by walking every
//     neighbor of the viewer. Serving, churn and the tools that already hold
//     a table use it.
//   * adj_rib_in computes it from the origin spec alone, over only the ASes
//     whose routes the viewer's neighbors export: the origin's up-cone and
//     the viewer's ancestors. At 30x that is ~6 cone ASes and ~5 selections
//     instead of an 11,041-AS table, so the Fig 1 studies plan from it.
#pragma once

#include <vector>

#include "bgpcmp/bgp/origin.h"
#include "bgpcmp/bgp/route.h"

namespace bgpcmp::bgp {

/// One route offered to the viewer by a neighbor.
struct CandidateRoute {
  AsIndex neighbor = kNoAs;  ///< next-hop AS
  EdgeId edge = kNoEdge;     ///< viewer-neighbor edge
  topo::NeighborRole neighbor_role = topo::NeighborRole::Peer;  ///< neighbor's role vs viewer
  RouteClass neighbor_class = RouteClass::None;  ///< class of the neighbor's own route
  std::uint16_t length = 0;  ///< BGP path length as heard by the viewer
  std::vector<AsIndex> as_path;  ///< [neighbor, ..., origin]
};

/// All routes the viewer hears toward the table's origin, one per exporting
/// neighbor. Includes the direct route if the viewer neighbors the origin.
/// `origin_spec` must be the spec the table was computed with (it governs
/// which sessions the origin announced on).
[[nodiscard]] std::vector<CandidateRoute> candidate_routes_at(
    const AsGraph& graph, const RouteTable& table, const OriginSpec& origin_spec,
    AsIndex viewer);

/// Overload for an unscoped origin.
[[nodiscard]] std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                              const RouteTable& table,
                                                              AsIndex viewer);

/// The same candidates candidate_routes_at(graph, compute_routes(graph,
/// origin_spec), origin_spec, viewer) returns — same entries, same (ASN,
/// index) order, every field equal — computed from the viewer's dependency
/// closure instead of a full table:
///   * customer routes over the origin's up-cone (the only ASes with one);
///   * peer routes, then the provider-first pull, over the viewer's
///     ancestors only (a provider exports whatever it selects);
///   * candidates from the viewer's provider edges, plus the origin and the
///     cone members the viewer has an edge to (customers and peers export
///     only customer routes).
/// Scratch state is sized by the closure, never by the graph. Rejects what
/// compute_routes rejects: a bad origin spec or a cyclic provider hierarchy.
[[nodiscard]] std::vector<CandidateRoute> adj_rib_in(const AsGraph& graph,
                                                     const OriginSpec& origin_spec,
                                                     AsIndex viewer);

}  // namespace bgpcmp::bgp
