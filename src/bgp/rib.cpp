#include "bgpcmp/bgp/rib.h"

#include <algorithm>
#include <span>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                const RouteTable& table,
                                                const OriginSpec& origin_spec,
                                                AsIndex viewer) {
  BGPCMP_CHECK_EQ(origin_spec.origin, table.origin(),
                  "RIB dump must use the table's own origin spec");
  const topo::EdgeIndex& idx = graph.edge_index();
  const std::span<const std::uint32_t> asns = idx.asns();
  std::vector<CandidateRoute> out;
  // At most one candidate per incident edge, so one reserve covers the worst
  // case. The grouped CSR walk knows each neighbor's role from its group, so
  // no AsEdge is read; the sort below fixes the output order.
  out.reserve(graph.edges_of(viewer).size());
  // Export policy: a neighbor announces its selected route to the viewer iff
  // the viewer is its customer (a provider group), or the route is
  // customer-learned (any group).
  const auto offer = [&](std::span<const EdgeId> edges, std::span<const AsIndex> far,
                         topo::NeighborRole role) {
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const AsIndex nb = far[k];
      CandidateRoute cand;
      cand.neighbor = nb;
      cand.edge = edges[k];
      cand.neighbor_role = role;

      if (nb == table.origin()) {
        if (!origin_spec.announces_on(graph, edges[k])) continue;
        cand.neighbor_class = RouteClass::Origin;
        cand.length = static_cast<std::uint16_t>(1 + origin_spec.prepend_on(edges[k]));
        cand.as_path = {nb};
        out.push_back(std::move(cand));
        continue;
      }

      const BestRoute& nbest = table.at(nb);
      if (!nbest.reachable()) continue;
      // Split horizon: the neighbor's route must not run through the viewer.
      if (nbest.next_hop == viewer) continue;
      if (role != topo::NeighborRole::Provider && nbest.cls != RouteClass::Customer) {
        continue;
      }

      auto path = table.path(nb);
      if (std::find(path.begin(), path.end(), viewer) != path.end()) continue;

      cand.neighbor_class = nbest.cls;
      cand.length = static_cast<std::uint16_t>(nbest.length + 1);
      cand.as_path = std::move(path);
      out.push_back(std::move(cand));
    }
  };
  offer(idx.up_edges(viewer), idx.up_far(viewer), topo::NeighborRole::Provider);
  offer(idx.down_edges(viewer), idx.down_far(viewer), topo::NeighborRole::Customer);
  offer(idx.peer_edges(viewer), idx.peer_far(viewer), topo::NeighborRole::Peer);
  std::sort(out.begin(), out.end(), [&](const CandidateRoute& a, const CandidateRoute& b) {
    const std::uint32_t x = asns[a.neighbor];
    const std::uint32_t y = asns[b.neighbor];
    return x != y ? x < y : a.neighbor < b.neighbor;
  });
  return out;
}

std::vector<CandidateRoute> candidate_routes_at(const AsGraph& graph,
                                                const RouteTable& table,
                                                AsIndex viewer) {
  return candidate_routes_at(graph, table, OriginSpec::everywhere(table.origin()),
                             viewer);
}

}  // namespace bgpcmp::bgp
