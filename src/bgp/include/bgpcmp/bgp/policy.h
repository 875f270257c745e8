// Route-selection policies.
//
// Propagation already encodes the Internet-standard Gao-Rexford preference.
// This header adds the *content-provider* egress policy from the paper
// (§3.1): "prefers private peers with dedicated capacity first, then public
// peers, and finally transit providers; and chooses shorter paths over longer
// ones" — the performance-agnostic default that Edge-Fabric-style controllers
// override.
#pragma once

#include "bgpcmp/bgp/rib.h"
#include "bgpcmp/topology/as_graph.h"

namespace bgpcmp::bgp {

using topo::LinkKind;

/// Egress class rank under the provider's BGP policy; smaller is preferred.
[[nodiscard]] int egress_rank(topo::NeighborRole role, LinkKind kind);

/// Strict-weak-order comparator over candidates at a PoP: egress rank, then
/// AS-path length, then neighbor (ASN, AS index), so distinct neighbors never
/// tie. `kind_a/kind_b` are the best link kinds available for each candidate
/// at that PoP (a candidate edge may have both a PNI and a public session; the
/// PNI wins).
[[nodiscard]] bool egress_preferred(const AsGraph& graph, const CandidateRoute& a,
                                    LinkKind kind_a, const CandidateRoute& b,
                                    LinkKind kind_b);

}  // namespace bgpcmp::bgp
