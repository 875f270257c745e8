#include "bgpcmp/bgp/rib.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "bgpcmp/bgp/propagation_detail.h"
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

namespace {

using detail::ClassState;

/// One AS of a viewer's dependency closure and the route it selects.
struct ClosureRoute {
  AsIndex as = kNoAs;
  RouteClass cls = RouteClass::None;
  ClassState route;
};

/// The slice of one origin's propagation that a viewer's Adj-RIB-in reads.
/// Routes live in one small list looked up by linear scan: the origin's
/// up-cone first (customer routes, stage 1), then the viewer's ancestors as
/// select() resolves them. Both sets are a handful of ASes in generated
/// worlds, so a scan beats hashing and nothing is sized by the graph.
class ViewerClosure {
 public:
  ViewerClosure(const AsGraph& graph, const OriginSpec& spec, AsIndex viewer)
      : graph_(graph),
        idx_(graph.edge_index()),
        asns_(idx_.asns()),
        spec_(spec),
        origin_(spec.origin),
        viewer_(viewer) {
    climb_cone();
  }

  /// Every route the viewer hears, in candidate_routes_at's order.
  std::vector<CandidateRoute> candidates() {
    std::vector<CandidateRoute> out;
    // Providers export whatever they select.
    const auto up = idx_.up_edges(viewer_);
    const auto up_far = idx_.up_far(viewer_);
    for (std::size_t k = 0; k < up.size(); ++k) {
      offer(up_far[k], up[k], topo::NeighborRole::Provider, out);
    }
    // Customers and peers export only customer routes (or their own prefix):
    // the origin and the cone are every AS that can offer one.
    const auto offer_direct = [&](AsIndex nb) {
      const std::optional<EdgeId> e = graph_.find_edge(viewer_, nb);
      if (!e) return;
      const topo::NeighborRole role = graph_.role_of_other(*e, viewer_);
      if (role != topo::NeighborRole::Provider) offer(nb, *e, role, out);
    };
    offer_direct(origin_);
    for (std::size_t s = 0; s < cone_size_; ++s) offer_direct(known_[s].as);
    std::sort(out.begin(), out.end(), [&](const CandidateRoute& a, const CandidateRoute& b) {
      const std::uint32_t x = asns_[a.neighbor];
      const std::uint32_t y = asns_[b.neighbor];
      return x != y ? x < y : a.neighbor < b.neighbor;
    });
    return out;
  }

 private:
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] std::size_t slot(AsIndex as) const {
    for (std::size_t s = 0; s < known_.size(); ++s) {
      if (known_[s].as == as) return s;
    }
    return kAbsent;
  }

  /// The origin's announcement length on edge `e`, or kInfLen where it is
  /// scoped off or suppressed.
  [[nodiscard]] std::uint32_t announced_len(EdgeId e) const {
    if (!spec_.announces_on(graph_, e)) return detail::kInfLen;
    return static_cast<std::uint32_t>(1 + spec_.prepend_on(e));
  }

  /// Stage 1 of compute_tables, restricted to the ASes it reaches: relax
  /// provider edges up from the origin until no customer route improves.
  /// Any order reaches the same least fixpoint; FIFO settles most ASes in
  /// one visit.
  void climb_cone() {
    std::vector<std::size_t> queue;
    const auto relax_up = [&](AsIndex provider, std::uint32_t len, AsIndex from, EdgeId e) {
      std::size_t s = slot(provider);
      if (s == kAbsent) {
        s = known_.size();
        known_.push_back(ClosureRoute{provider, RouteClass::Customer, ClassState{}});
      }
      if (!detail::better(asns_, len, from, known_[s].route)) return;
      known_[s].route = ClassState{len, from, e};
      queue.push_back(s);
    };
    const auto edges = idx_.up_edges(origin_);
    const auto far = idx_.up_far(origin_);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const std::uint32_t len = announced_len(edges[k]);
      if (len != detail::kInfLen) relax_up(far[k], len, origin_, edges[k]);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const AsIndex x = known_[queue[head]].as;
      const std::uint32_t len = known_[queue[head]].route.len + 1;
      const auto x_edges = idx_.up_edges(x);
      const auto x_far = idx_.up_far(x);
      for (std::size_t k = 0; k < x_edges.size(); ++k) {
        if (x_far[k] != origin_) relax_up(x_far[k], len, x, x_edges[k]);
      }
    }
    cone_size_ = known_.size();
  }

  /// The route `as` selects (stages 2 and 3 for an AS outside the cone),
  /// memoized. Called for the viewer's providers and, through the pull, for
  /// their providers in turn; the acyclic hierarchy bounds the recursion.
  ClosureRoute select(AsIndex as) {
    if (const std::size_t s = slot(as); s != kAbsent) return known_[s];
    ClosureRoute out{as, RouteClass::None, ClassState{}};
    // Stage 2: one peer hop off the origin or a cone AS.
    const auto offer_peer = [&](AsIndex from, std::uint32_t from_len) {
      const std::optional<EdgeId> e = graph_.find_edge(as, from);
      if (!e || graph_.edge(*e).rel != topo::Relationship::PeerPeer) return;
      const std::uint32_t len = from == origin_ ? announced_len(*e) : from_len + 1;
      if (len != detail::kInfLen && detail::better(asns_, len, from, out.route)) {
        out.route = ClassState{len, from, *e};
      }
    };
    offer_peer(origin_, 0);
    for (std::size_t s = 0; s < cone_size_; ++s) {
      offer_peer(known_[s].as, known_[s].route.len);
    }
    if (out.route.valid()) {
      out.cls = RouteClass::Peer;
    } else {
      // Stage 3: the pull over this AS's providers, each already final.
      const auto edges = idx_.up_edges(as);
      const auto far = idx_.up_far(as);
      for (std::size_t k = 0; k < edges.size(); ++k) {
        std::uint32_t len = detail::kInfLen;
        if (far[k] == origin_) {
          len = announced_len(edges[k]);
        } else if (const ClosureRoute p = select(far[k]); p.route.valid()) {
          len = p.route.len + 1;
        }
        if (len != detail::kInfLen && detail::better(asns_, len, far[k], out.route)) {
          out.route = ClassState{len, far[k], edges[k]};
        }
      }
      if (out.route.valid()) out.cls = RouteClass::Provider;
    }
    known_.push_back(out);
    return out;
  }

  /// table.path(from) over the closure: every next hop of a closure route
  /// is the origin or another closure AS.
  [[nodiscard]] std::vector<AsIndex> path(AsIndex from, std::uint32_t len) const {
    std::vector<AsIndex> out;
    out.reserve(static_cast<std::size_t>(len) + 1);
    AsIndex cur = from;
    for (std::size_t steps = 0; steps <= known_.size(); ++steps) {
      out.push_back(cur);
      if (cur == origin_) return out;
      const std::size_t s = slot(cur);
      BGPCMP_CHECK_NE(s, kAbsent, "Adj-RIB-in path leaves the viewer's closure");
      cur = known_[s].route.next_hop;
    }
    BGPCMP_FAIL("forwarding loop in Adj-RIB-in closure");
    return {};
  }

  /// candidate_routes_at's per-neighbor filter, on a closure route.
  void offer(AsIndex nb, EdgeId e, topo::NeighborRole role,
             std::vector<CandidateRoute>& out) {
    CandidateRoute cand;
    cand.neighbor = nb;
    cand.edge = e;
    cand.neighbor_role = role;
    if (nb == origin_) {
      if (!spec_.announces_on(graph_, e)) return;
      cand.neighbor_class = RouteClass::Origin;
      cand.length = static_cast<std::uint16_t>(1 + spec_.prepend_on(e));
      cand.as_path = {nb};
      out.push_back(std::move(cand));
      return;
    }
    const ClosureRoute r = select(nb);
    if (r.cls == RouteClass::None || r.route.next_hop == viewer_) return;
    // Split horizon: the neighbor's route must not run through the viewer.
    auto as_path = path(nb, r.route.len);
    if (std::find(as_path.begin(), as_path.end(), viewer_) != as_path.end()) return;
    // BestRoute::length is uint16; select_one rejects a longer route.
    BGPCMP_CHECK_LE(r.route.len, std::numeric_limits<std::uint16_t>::max(),
                    "AS-path length overflows BestRoute::length (check prepends)");
    cand.neighbor_class = r.cls;
    cand.length = static_cast<std::uint16_t>(static_cast<std::uint16_t>(r.route.len) + 1);
    cand.as_path = std::move(as_path);
    out.push_back(std::move(cand));
  }

  const AsGraph& graph_;
  const topo::EdgeIndex& idx_;
  std::span<const std::uint32_t> asns_;
  const OriginSpec& spec_;
  AsIndex origin_;
  AsIndex viewer_;
  std::vector<ClosureRoute> known_;  ///< cone, then resolved ancestors
  std::size_t cone_size_ = 0;        ///< known_[0, cone_size_) is the cone
};

}  // namespace

std::vector<CandidateRoute> adj_rib_in(const AsGraph& graph, const OriginSpec& origin_spec,
                                       AsIndex viewer) {
  detail::check_origin(graph, origin_spec);
  BGPCMP_CHECK_LT(viewer, graph.as_count(), "viewer AS out of range");
  BGPCMP_CHECK_EQ(graph.edge_index().provider_first().size(), graph.as_count(),
                  "provider-customer edges form a cycle; Gao-Rexford propagation "
                  "needs an acyclic provider hierarchy");
  // The origin hears nothing: every neighbor's route runs through it.
  if (viewer == origin_spec.origin) return {};
  return ViewerClosure{graph, origin_spec, viewer}.candidates();
}

}  // namespace bgpcmp::bgp
