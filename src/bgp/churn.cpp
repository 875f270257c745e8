#include "bgpcmp/bgp/churn.h"

#include <algorithm>
#include <utility>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

using detail::ClassState;
using detail::kInfLen;

std::string_view churn_kind_name(ChurnKind k) {
  switch (k) {
    case ChurnKind::Withdraw: return "withdraw";
    case ChurnKind::Announce: return "announce";
    case ChurnKind::Prepend: return "prepend";
    case ChurnKind::SuppressEdge: return "suppress";
    case ChurnKind::LinkFlap: return "link-flap";
    case ChurnKind::FacilityOutage: return "facility-outage";
  }
  return "?";
}

ChurnEngine::ChurnEngine(const AsGraph* graph, OriginSpec base)
    : graph_(graph),
      base_(std::move(base)),
      table_(graph, base_.origin, {}),
      worklist_(graph->as_count()) {
  detail::check_origin(*graph_, base_);
  const std::size_t n = graph_->as_count();
  cust_saved_.reset(n);
  peer_saved_.reset(n);
  prov_saved_.reset(n);
  eff_ = materialize();
  converge();
}

OriginSpec ChurnEngine::materialize() const {
  OriginSpec eff = base_;
  const bool links_down = link_down_.size() + city_down_.size() != 0;
  const auto is_down = [&](LinkId l) {
    return link_down_.contains(l) || city_down_.contains(graph_->link(l).city);
  };
  // A scoped announcement rides specific links: downed ones drop out of the
  // scope (an edge whose scoped links are all down then announces nothing).
  if (eff.scope && links_down) std::erase_if(*eff.scope, is_down);
  const topo::EdgeIndex& idx = graph_->edge_index();
  for (const EdgeId e : idx.edges_of(eff.origin)) {
    if (edge_down_.contains(e)) {
      // A withdrawn session announces nothing, whatever base_ says.
      eff.suppress.insert(e);
      continue;
    }
    if (!links_down || eff.scope) continue;  // scoped edges handled above
    // An unscoped announcement survives on an edge while any link is up.
    const auto& links = graph_->edge(e).links;
    if (!links.empty() && std::all_of(links.begin(), links.end(), is_down)) {
      eff.suppress.insert(e);
    }
  }
  return eff;
}

void ChurnEngine::converge() {
  tables_ = detail::compute_tables(*graph_, eff_);
  table_ = detail::select_best(*graph_, tables_, eff_.origin);
}

ChurnStats ChurnEngine::reconverge(std::span<const ChurnEvent> events) {
  ChurnStats st;
  st.events = events.size();
  const AsIndex o = base_.origin;

  // --- Apply the event batch to the announcement / session state. ---------
  for (const ChurnEvent& ev : events) {
    switch (ev.kind) {
      case ChurnKind::Withdraw:
      case ChurnKind::Announce:
      case ChurnKind::Prepend:
      case ChurnKind::SuppressEdge: {
        BGPCMP_CHECK_LT(ev.edge, graph_->edge_count(), "churn event on an edge outside the graph");
        const auto& edge = graph_->edge(ev.edge);
        BGPCMP_CHECK(edge.a == o || edge.b == o,
                     "session churn events must touch an origin session");
        break;
      }
      case ChurnKind::LinkFlap:
        BGPCMP_CHECK_LT(ev.link, graph_->link_count(), "link flap outside the graph");
        break;
      case ChurnKind::FacilityOutage:
        break;
    }
    switch (ev.kind) {
      case ChurnKind::Withdraw:
        edge_down_.insert(ev.edge);
        break;
      case ChurnKind::Announce:
        // Re-announcing clears both a withdrawal and a grooming suppress.
        edge_down_.erase(ev.edge);
        base_.suppress.erase(ev.edge);
        break;
      case ChurnKind::Prepend:
        // Same contract as check_origin: a negative count would underflow
        // the unsigned length arithmetic, so reject it at the event surface.
        BGPCMP_CHECK_GE(ev.prepend, 0, "prepend count must be non-negative");
        if (ev.prepend == 0) {
          base_.prepend.erase(ev.edge);
        } else {
          base_.prepend[ev.edge] = ev.prepend;
        }
        break;
      case ChurnKind::SuppressEdge:
        base_.suppress.insert(ev.edge);
        break;
      case ChurnKind::LinkFlap:
        if (!link_down_.erase(ev.link)) link_down_.insert(ev.link);
        break;
      case ChurnKind::FacilityOutage:
        if (!city_down_.erase(ev.city)) city_down_.insert(ev.city);
        break;
    }
  }

  // --- Diff the effective announcement session by session. ----------------
  // Every event only moves the origin's own sessions (the AS graph itself is
  // immutable), so the changed frontier starts at origin-incident edges.
  OriginSpec neweff = materialize();
  detail::check_origin(*graph_, neweff);
  const topo::EdgeIndex& idx = graph_->edge_index();
  const std::span<const std::uint32_t> asns = idx.asns();
  const auto session = [&](const OriginSpec& s, EdgeId e) {
    const bool ann = s.announces_on(*graph_, e);
    return std::pair<bool, int>{ann, ann ? s.prepend_on(e) : 0};
  };
  // Vectors in CSR scan order, never hash sets: every loop below walks the
  // changed frontier in the same deterministic order a full rebuild would.
  std::vector<EdgeId> changed_up;
  std::vector<EdgeId> changed_peer;
  std::vector<EdgeId> changed_down;
  const auto diff_into = [&](std::span<const EdgeId> edges,
                             std::vector<EdgeId>& out) {
    for (const EdgeId e : edges) {
      if (session(eff_, e) != session(neweff, e)) out.push_back(e);
    }
  };
  const auto in = [](const std::vector<EdgeId>& v, EdgeId e) {
    return std::find(v.begin(), v.end(), e) != v.end();
  };
  diff_into(idx.up_edges(o), changed_up);
  diff_into(idx.peer_edges(o), changed_peer);
  diff_into(idx.down_edges(o), changed_down);
  st.changed_sessions = changed_up.size() + changed_peer.size() + changed_down.size();
  eff_ = std::move(neweff);
  if (st.changed_sessions == 0) return st;

  detail::Tables& t = tables_;
  auto& wl = worklist_;

  // =========================================================================
  // Stage 1 (customer class), incrementally.
  //
  // The customer fixpoint is an in-tree over next_hop chains rooted at the
  // origin, climbing provider edges. Exactly the states whose chain crosses a
  // changed session *must* be recomputed: invalidate that subtree (closure
  // over the old tree via the CSR up-edges), then re-seed the worklist from
  // the origin's sessions and from the invalidation boundary (clean customer
  // states offered to invalidated providers) and relax as usual. Clean states
  // are still achievable (their whole chain is unchanged) and any possible
  // improvement wave starts at a changed session, so monotone relaxation
  // lands on the same least fixpoint a full rebuild computes — byte-
  // identical, including via-edge ties, because edges relax in the same CSR
  // order.
  // =========================================================================
  cust_saved_.begin();
  std::vector<AsIndex>& dirty = scratch_;
  dirty.clear();
  const auto invalidate_cust = [&](AsIndex p) {
    if (cust_saved_.saved(p)) return;
    cust_saved_.save(p, t.cust[p]);
    t.cust[p] = ClassState{};
    dirty.push_back(p);
  };
  for (const EdgeId e : changed_up) {
    const AsIndex p = graph_->edge(e).a;
    if (t.cust[p].valid() && t.cust[p].via_edge == e) invalidate_cust(p);
  }
  for (std::size_t h = 0; h < dirty.size(); ++h) {
    const AsIndex d = dirty[h];
    for (const EdgeId e : idx.up_edges(d)) {
      const AsIndex q = graph_->edge(e).a;
      if (q == o) continue;
      if (t.cust[q].valid() && t.cust[q].next_hop == d) invalidate_cust(q);
    }
  }
  st.invalidated_customer = dirty.size();

  const auto relax_up = [&](AsIndex into, std::uint32_t cand, AsIndex nh, EdgeId e) {
    if (detail::better(asns, cand, nh, t.cust[into])) {
      cust_saved_.save(into, t.cust[into]);
      t.cust[into] = ClassState{cand, nh, e};
      wl.push(into);
    }
  };
  // Origin sessions re-seed if the session changed or its provider was
  // invalidated (it may regain its route over an unchanged session).
  for (const EdgeId e : idx.up_edges(o)) {
    const AsIndex p = graph_->edge(e).a;
    if (!in(changed_up, e) && !cust_saved_.saved(p)) continue;
    if (!eff_.announces_on(*graph_, e)) continue;
    relax_up(p, static_cast<std::uint32_t>(1 + eff_.prepend_on(e)), o, e);
  }
  // Boundary: every clean customer state below an invalidated provider is
  // final — offer it back so the subtree regrows from its edges.
  const std::size_t cust_dirty_count = dirty.size();
  for (std::size_t h = 0; h < cust_dirty_count; ++h) {
    const AsIndex x = dirty[h];
    for (const EdgeId e : idx.down_edges(x)) {
      const AsIndex c = graph_->edge(e).b;
      if (c == o || !t.cust[c].valid()) continue;
      relax_up(x, t.cust[c].len + 1, c, e);
    }
  }
  while (!wl.empty()) {
    const AsIndex x = wl.pop();
    ++st.worklist_pops;
    const std::uint32_t len = t.cust[x].len;
    for (const EdgeId e : idx.up_edges(x)) {
      const AsIndex p = graph_->edge(e).a;
      if (p == o) continue;
      relax_up(p, len + 1, x, e);
    }
  }
  std::vector<AsIndex> changed1;
  for (const AsIndex i : cust_saved_.touched) {
    if (!(t.cust[i] == cust_saved_.old[i])) changed1.push_back(i);
  }

  // =========================================================================
  // Stage 2 (peer class): peer[x] depends only on x's own peer sessions, the
  // origin's announcements on them, and the *customer* states of x's peer
  // neighbors — no chaining. So the exact affected set is known up front:
  // targets of changed origin peer sessions plus peer neighbors of every AS
  // whose customer state moved. Recompute those from scratch.
  // =========================================================================
  peer_saved_.begin();
  const auto recompute_peer = [&](AsIndex x) {
    if (x == o || peer_saved_.saved(x)) return;
    peer_saved_.save(x, t.peer[x]);
    ClassState best{};
    for (const EdgeId e : idx.peer_edges(x)) {
      const AsIndex from = graph_->other_end(e, x);
      std::uint32_t cand;
      if (from == o) {
        if (!eff_.announces_on(*graph_, e)) continue;
        cand = static_cast<std::uint32_t>(1 + eff_.prepend_on(e));
      } else {
        if (!t.cust[from].valid()) continue;  // peers export only customer routes
        cand = t.cust[from].len + 1;
      }
      if (detail::better(asns, cand, from, best)) best = ClassState{cand, from, e};
    }
    t.peer[x] = best;
  };
  for (const EdgeId e : changed_peer) recompute_peer(graph_->other_end(e, o));
  for (const AsIndex x : changed1) {
    for (const EdgeId e : idx.peer_edges(x)) recompute_peer(graph_->other_end(e, x));
  }
  st.invalidated_peer = peer_saved_.touched.size();
  std::vector<AsIndex> changed2;
  for (const AsIndex i : peer_saved_.touched) {
    if (!(t.peer[i] == peer_saved_.old[i])) changed2.push_back(i);
  }

  // =========================================================================
  // Stage 3 (provider class), incrementally.
  //
  // Provider states chain off *exports* — each AS exports its selected route
  // (customer, else peer, else provider), so the triggers here are (a)
  // changed origin provider->customer sessions and (b) ASes whose selected
  // export length moved in stages 1-2. Invalidate the old provider in-tree
  // hanging off those triggers; the closure descends through a dirty AS only
  // while that AS is provider-selected (a customer/peer-selected AS exports
  // its already-final stage-1/2 state, so its provider children don't care).
  // Then re-seed from the origin's sessions, the boundary (each invalidated
  // customer re-offered every clean provider's current export) and the
  // changed exports, and run the usual guarded descent.
  // =========================================================================
  prov_saved_.begin();
  // Export trigger set: compare old vs new selected length where only the
  // stage-1/2 classes moved (the provider fallback is identical on both
  // sides, so the comparison isolates real export movement).
  std::vector<AsIndex> export_changed;
  const auto old_export_len = [&](AsIndex x) {
    const ClassState& c = cust_saved_.saved(x) ? cust_saved_.old[x] : t.cust[x];
    const ClassState& p = peer_saved_.saved(x) ? peer_saved_.old[x] : t.peer[x];
    if (c.valid()) return c.len;
    if (p.valid()) return p.len;
    return t.prov[x].valid() ? t.prov[x].len : kInfLen;
  };
  const auto consider_export = [&](AsIndex x) {
    if (old_export_len(x) != detail::best_len(t, x, o)) export_changed.push_back(x);
  };
  for (const AsIndex x : changed1) consider_export(x);
  for (const AsIndex x : changed2) consider_export(x);
  // An AS whose customer AND peer class both moved triggers exactly once,
  // and the trigger walk runs in AS-index order.
  std::sort(export_changed.begin(), export_changed.end());
  export_changed.erase(std::unique(export_changed.begin(), export_changed.end()),
                       export_changed.end());

  dirty.clear();
  const auto invalidate_prov = [&](AsIndex c) {
    if (prov_saved_.saved(c)) return;
    prov_saved_.save(c, t.prov[c]);
    t.prov[c] = ClassState{};
    dirty.push_back(c);
  };
  for (const EdgeId e : changed_down) {
    const AsIndex c = graph_->edge(e).b;
    if (c != o && t.prov[c].valid() && t.prov[c].via_edge == e) invalidate_prov(c);
  }
  for (const AsIndex x : export_changed) {
    for (const EdgeId e : idx.down_edges(x)) {
      const AsIndex c = graph_->edge(e).b;
      if (c != o && t.prov[c].valid() && t.prov[c].via_edge == e) invalidate_prov(c);
    }
  }
  for (std::size_t h = 0; h < dirty.size(); ++h) {
    const AsIndex d = dirty[h];
    if (t.cust[d].valid() || t.peer[d].valid()) continue;  // export unchanged
    for (const EdgeId e : idx.down_edges(d)) {
      const AsIndex c = graph_->edge(e).b;
      if (c != o && t.prov[c].valid() && t.prov[c].next_hop == d) invalidate_prov(c);
    }
  }
  st.invalidated_provider = dirty.size();

  const auto relax_down = [&](AsIndex from, std::uint32_t cand, EdgeId e) {
    const AsIndex c = graph_->edge(e).b;
    if (c == o) return;
    if (detail::better(asns, cand, from, t.prov[c])) {
      prov_saved_.save(c, t.prov[c]);
      t.prov[c] = ClassState{cand, from, e};
      // Only provider-selected ASes re-export from here, so only they
      // re-enter the worklist.
      if (!t.cust[c].valid() && !t.peer[c].valid()) wl.push(c);
    }
  };
  for (const EdgeId e : idx.down_edges(o)) {
    const AsIndex c = graph_->edge(e).b;
    if (!in(changed_down, e) && !prov_saved_.saved(c)) continue;
    if (!eff_.announces_on(*graph_, e)) continue;
    relax_down(o, static_cast<std::uint32_t>(1 + eff_.prepend_on(e)), e);
  }
  const std::size_t prov_dirty_count = dirty.size();
  for (std::size_t h = 0; h < prov_dirty_count; ++h) {
    const AsIndex c = dirty[h];
    for (const EdgeId e : idx.up_edges(c)) {
      const AsIndex p = graph_->edge(e).a;
      if (p == o) continue;  // origin sessions were seeded above
      // A clean provider's current export is final; a dirty one is skipped
      // here (kInfLen) and will relax downward once it regains a route.
      const std::uint32_t ex = detail::best_len(t, p, o);
      if (ex != kInfLen) relax_down(p, ex + 1, e);
    }
  }
  for (const AsIndex x : export_changed) {
    const std::uint32_t ex = detail::best_len(t, x, o);  // post-invalidation
    if (ex == kInfLen) continue;
    for (const EdgeId e : idx.down_edges(x)) relax_down(x, ex + 1, e);
  }
  while (!wl.empty()) {
    const AsIndex x = wl.pop();
    ++st.worklist_pops;
    const std::uint32_t len = t.prov[x].len;
    for (const EdgeId e : idx.down_edges(x)) relax_down(x, len + 1, e);
  }

  // --- Patch the selected table over the touched frontier. ----------------
  std::vector<AsIndex>& frontier = scratch_;
  frontier.clear();
  frontier.insert(frontier.end(), cust_saved_.touched.begin(), cust_saved_.touched.end());
  frontier.insert(frontier.end(), peer_saved_.touched.begin(), peer_saved_.touched.end());
  frontier.insert(frontier.end(), prov_saved_.touched.begin(), prov_saved_.touched.end());
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()), frontier.end());
  for (const AsIndex i : frontier) {
    const BestRoute now = detail::select_one(*graph_, t, i, o);
    const BestRoute& was = table_.at(i);
    if (now.cls == was.cls && now.length == was.length &&
        now.next_hop == was.next_hop && now.via_edge == was.via_edge) {
      continue;
    }
    table_.set(i, now);
    ++st.changed_routes;
  }
  return st;
}

}  // namespace bgpcmp::bgp
