// Network-wide BGP route propagation under Gao-Rexford policy.
//
// Three-stage computation of the routes every AS selects toward one origin:
// (1) customer routes climb provider edges from the origin's customer cone;
// (2) peer routes extend one peer hop off customer routes; (3) provider
// routes descend customer edges from any routed AS. Within a preference
// class, shorter paths win; ties break on lowest next-hop ASN, mirroring
// BGP's deterministic tie-breaking, and then on lowest next-hop AS index,
// so neighbors sharing an ASN never leave the winner to visit order. The
// result is guaranteed valley-free.
//
// The provider hierarchy must be acyclic (the generator never builds a
// cycle): compute_routes rejects a graph whose provider-customer edges form
// a loop with a BGPCMP_CHECK.
#pragma once

#include "bgpcmp/bgp/origin.h"
#include "bgpcmp/bgp/route.h"

namespace bgpcmp::bgp {

/// Compute the routing table toward `origin` over the graph's CSR edge index
/// (topo::EdgeIndex): customer routes by a worklist that relaxes only the
/// provider edges of ASes whose route just improved, peer routes by one pass
/// over the customer cone's peer edges, and provider routes by a single pull
/// sweep in provider-first order, where each AS takes the best export among
/// its already-final providers. Every class's result is the unique minimum
/// of (length, next-hop ASN, next-hop index), so the table is byte-identical
/// to compute_routes_reference. Rejects a cyclic provider hierarchy.
[[nodiscard]] RouteTable compute_routes(const AsGraph& graph, const OriginSpec& origin);

/// Full-scan fixpoint implementation: every stage rescans all edges per pass,
/// O(passes * edges). Kept as the golden reference the production kernel is
/// pinned against in tests; not for production paths.
[[nodiscard]] RouteTable compute_routes_reference(const AsGraph& graph,
                                                  const OriginSpec& origin);

/// Convenience: origin announced on all sessions.
[[nodiscard]] RouteTable compute_routes(const AsGraph& graph, AsIndex origin);

}  // namespace bgpcmp::bgp
