#include "bgpcmp/bgp/propagation.h"

#include <span>
#include <utility>
#include <vector>

#include "bgpcmp/bgp/propagation_detail.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

namespace detail {

BestRoute select_one(const AsGraph& graph, const Tables& t, AsIndex i,
                     AsIndex origin) {
  (void)graph;
  if (i == origin) return BestRoute{RouteClass::Origin, 0, kNoAs, kNoEdge};
  const auto narrow = [&](const ClassState& s, RouteClass cls) {
    // BestRoute::length is uint16; a uint32 relaxation length past 65535 can
    // only come from a pathological prepend and must not wrap silently.
    BGPCMP_CHECK_LE(s.len, std::numeric_limits<std::uint16_t>::max(),
                    "AS-path length overflows BestRoute::length (check prepends)");
    return BestRoute{cls, static_cast<std::uint16_t>(s.len), s.next_hop, s.via_edge};
  };
  if (t.cust[i].valid()) return narrow(t.cust[i], RouteClass::Customer);
  if (t.peer[i].valid()) return narrow(t.peer[i], RouteClass::Peer);
  if (t.prov[i].valid()) return narrow(t.prov[i], RouteClass::Provider);
  return BestRoute{};
}

RouteTable select_best(const AsGraph& graph, const Tables& t, AsIndex o) {
  const std::size_t n = graph.as_count();
  std::vector<BestRoute> best(n);
  for (AsIndex i = 0; i < n; ++i) best[i] = select_one(graph, t, i, o);
  return RouteTable{&graph, o, std::move(best)};
}

void check_origin(const AsGraph& graph, const OriginSpec& origin) {
  BGPCMP_CHECK_NE(origin.origin, kNoAs, "announcement needs a real origin AS");
  BGPCMP_CHECK_LT(origin.origin, graph.as_count(), "origin AS out of range");
  for (const auto& [edge, count] : origin.prepend) {
    BGPCMP_CHECK_LT(edge, graph.edge_count(), "prepend on an edge outside the graph");
    // prepend_on feeds unsigned length arithmetic (1 + prepend): a negative
    // count would underflow into a near-2^32 "length", so reject it here at
    // every propagation entry point rather than wrapping silently.
    BGPCMP_CHECK_GE(count, 0, "prepend count must be non-negative");
  }
}

Tables compute_tables(const AsGraph& graph, const OriginSpec& origin) {
  check_origin(graph, origin);
  const topo::EdgeIndex& idx = graph.edge_index();
  const std::size_t n = graph.as_count();
  const std::span<const AsIndex> order = idx.provider_first();
  BGPCMP_CHECK_EQ(order.size(), n,
                  "provider-customer edges form a cycle; Gao-Rexford propagation "
                  "needs an acyclic provider hierarchy");
  const std::span<const std::uint32_t> asns = idx.asns();
  Tables t{n};

  const AsIndex o = origin.origin;
  Worklist wl{n};

  // Stage 1: customer routes. An AS has one iff the origin is in its customer
  // cone. Seed the origin's announcements up its provider edges, then relax
  // each improved AS's provider edges until the wave dies out. Relaxation is
  // monotone in (length, next-hop ASN, next-hop index), so any processing
  // order converges to the same least fixpoint the reference full-scan
  // computes. `cone` lists every AS that gained a customer route.
  std::vector<AsIndex> cone;
  const auto relax_up = [&](AsIndex provider, std::uint32_t cand, AsIndex from, EdgeId e) {
    ClassState& cur = t.cust[provider];
    if (!better(asns, cand, from, cur)) return;
    if (!cur.valid()) cone.push_back(provider);
    cur = ClassState{cand, from, e};
    wl.push(provider);
  };
  {
    const auto edges = idx.up_edges(o);
    const auto far = idx.up_far(o);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!origin.announces_on(graph, edges[k])) continue;
      relax_up(far[k], static_cast<std::uint32_t>(1 + origin.prepend_on(edges[k])), o,
               edges[k]);
    }
  }
  while (!wl.empty()) {
    const AsIndex x = wl.pop();
    const std::uint32_t len = t.cust[x].len + 1;
    const auto edges = idx.up_edges(x);
    const auto far = idx.up_far(x);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (far[k] == o) continue;  // origin doesn't learn its own prefix
      relax_up(far[k], len, x, edges[k]);
    }
  }

  // Stage 2: peer routes. Valley-freeness allows exactly one peer hop, and
  // only off a customer route (or the origin itself), so one sweep over the
  // peer edges of the customer cone suffices.
  {
    const auto edges = idx.peer_edges(o);
    const auto far = idx.peer_far(o);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (!origin.announces_on(graph, edges[k])) continue;
      const auto cand = static_cast<std::uint32_t>(1 + origin.prepend_on(edges[k]));
      if (better(asns, cand, o, t.peer[far[k]])) t.peer[far[k]] = ClassState{cand, o, edges[k]};
    }
  }
  for (const AsIndex x : cone) {
    const std::uint32_t len = t.cust[x].len + 1;  // peers export only customer routes
    const auto edges = idx.peer_edges(x);
    const auto far = idx.peer_far(x);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const AsIndex to = far[k];
      if (to == o) continue;
      if (better(asns, len, x, t.peer[to])) t.peer[to] = ClassState{len, x, edges[k]};
    }
  }

  // Stage 3: provider routes. A provider exports its *selected* route (class
  // preference first, so possibly not its shortest) to customers. One pull
  // sweep in provider-first order: by the time an AS is visited every
  // provider's selection is final, so it takes the best of (provider's
  // export length + 1, provider ASN, provider index) over its up edges, and
  // records its own export length for its customers.
  std::vector<std::uint32_t> export_len(n, kInfLen);
  for (const AsIndex c : order) {
    if (c == o) {
      export_len[c] = 0;
      continue;
    }
    ClassState best{};
    const auto edges = idx.up_edges(c);
    const auto far = idx.up_far(c);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const AsIndex p = far[k];
      std::uint32_t cand;
      if (p == o) {
        if (!origin.announces_on(graph, edges[k])) continue;
        cand = static_cast<std::uint32_t>(1 + origin.prepend_on(edges[k]));
      } else {
        if (export_len[p] == kInfLen) continue;
        cand = export_len[p] + 1;
      }
      if (better(asns, cand, p, best)) best = ClassState{cand, p, edges[k]};
    }
    t.prov[c] = best;
    export_len[c] = t.cust[c].valid()   ? t.cust[c].len
                    : t.peer[c].valid() ? t.peer[c].len
                                        : best.len;
  }

  return t;
}

}  // namespace detail

RouteTable compute_routes(const AsGraph& graph, const OriginSpec& origin) {
  return detail::select_best(graph, detail::compute_tables(graph, origin),
                             origin.origin);
}

RouteTable compute_routes_reference(const AsGraph& graph, const OriginSpec& origin) {
  using detail::ClassState;
  using detail::Tables;
  using detail::better;
  using detail::kInfLen;
  detail::check_origin(graph, origin);
  const std::size_t n = graph.as_count();
  const std::span<const std::uint32_t> asns = graph.edge_index().asns();
  Tables t{n};

  const AsIndex o = origin.origin;

  // Stage 1: customer routes. An AS has one iff the origin is in its customer
  // cone; propagate up provider edges to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const auto& edge = graph.edge(e);
      if (edge.rel != topo::Relationship::ProviderCustomer) continue;
      const AsIndex provider = edge.a;
      const AsIndex customer = edge.b;
      if (provider == o) continue;  // origin doesn't learn its own prefix
      std::uint32_t len_c;
      int extra = 0;
      if (customer == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_c = 0;
        extra = origin.prepend_on(e);
      } else {
        if (!t.cust[customer].valid()) continue;
        len_c = t.cust[customer].len;
      }
      const std::uint32_t cand = len_c + 1 + static_cast<std::uint32_t>(extra);
      if (better(asns, cand, customer, t.cust[provider])) {
        t.cust[provider] = ClassState{cand, customer, e};
        changed = true;
      }
    }
  }

  // Stage 2: peer routes. Valley-freeness allows exactly one peer hop, and
  // only off a customer route (or the origin itself), so one pass suffices.
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const auto& edge = graph.edge(e);
    if (edge.rel != topo::Relationship::PeerPeer) continue;
    for (const auto& [from, to] :
         {std::pair{edge.a, edge.b}, std::pair{edge.b, edge.a}}) {
      if (to == o) continue;
      std::uint32_t len_f;
      int extra = 0;
      if (from == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_f = 0;
        extra = origin.prepend_on(e);
      } else {
        if (!t.cust[from].valid()) continue;  // peers export only customer routes
        len_f = t.cust[from].len;
      }
      const std::uint32_t cand = len_f + 1 + static_cast<std::uint32_t>(extra);
      if (better(asns, cand, from, t.peer[to])) {
        t.peer[to] = ClassState{cand, from, e};
      }
    }
  }

  // Stage 3: provider routes. A provider exports its *selected* route (class
  // preference first, so possibly not its shortest) to customers; descend
  // customer edges to a fixpoint.
  changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      const auto& edge = graph.edge(e);
      if (edge.rel != topo::Relationship::ProviderCustomer) continue;
      const AsIndex provider = edge.a;
      const AsIndex customer = edge.b;
      if (customer == o) continue;
      std::uint32_t len_p;
      int extra = 0;
      if (provider == o) {
        if (!origin.announces_on(graph, e)) continue;
        len_p = 0;
        extra = origin.prepend_on(e);
      } else {
        len_p = detail::best_len(t, provider, o);
        if (len_p == kInfLen) continue;
      }
      const std::uint32_t cand = len_p + 1 + static_cast<std::uint32_t>(extra);
      if (better(asns, cand, provider, t.prov[customer])) {
        t.prov[customer] = ClassState{cand, provider, e};
        changed = true;
      }
    }
  }

  return detail::select_best(graph, t, o);
}

RouteTable compute_routes(const AsGraph& graph, AsIndex origin) {
  return compute_routes(graph, OriginSpec::everywhere(origin));
}

}  // namespace bgpcmp::bgp
