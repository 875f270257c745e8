#include "bgpcmp/bgp/policy.h"

namespace bgpcmp::bgp {

int egress_rank(topo::NeighborRole role, LinkKind kind) {
  if (role == topo::NeighborRole::Provider) return 2;  // transit last
  // Peers (and customers, were a provider to have them) ranked by link kind.
  return kind == LinkKind::PrivatePeering ? 0 : 1;
}

bool egress_preferred(const AsGraph& graph, const CandidateRoute& a, LinkKind kind_a,
                      const CandidateRoute& b, LinkKind kind_b) {
  const int ra = egress_rank(a.neighbor_role, kind_a);
  const int rb = egress_rank(b.neighbor_role, kind_b);
  if (ra != rb) return ra < rb;
  if (a.length != b.length) return a.length < b.length;
  // (ASN, AS index), the order detail::better and candidate_routes_at use:
  // ASNs repeat in large generated worlds, and an ASN-only tie would leave
  // the ranking to std::sort's internals.
  const Asn x = graph.node(a.neighbor).asn;
  const Asn y = graph.node(b.neighbor).asn;
  return x != y ? x < y : a.neighbor < b.neighbor;
}

}  // namespace bgpcmp::bgp
