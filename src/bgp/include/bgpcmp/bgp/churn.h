// Event-driven churn: incremental re-convergence of one prefix's routes.
//
// Every study so far rebuilds compute_routes from scratch per window over a
// static world, but real BGP is a long-running daemon absorbing announce /
// withdraw / flap events and re-converging only the affected frontier (the
// quagga bgpd Local-RIB update path works exactly this way). ChurnEngine is
// that daemon loop for one announced prefix: it retains the per-class
// relaxation state a full converge produces, applies an event stream to the
// announcement, invalidates the class states reachable from the touched
// origin sessions via the CSR EdgeIndex route trees, re-seeds the three-stage
// worklists from the invalidation boundary, and relaxes back to the unique
// least fixpoint — byte-identical to a full rebuild under the post-event
// spec (golden-pinned in tests/bgp/churn_test.cpp), at a cost proportional
// to the affected frontier instead of the world. docs/CHURN.md documents the
// event model and the invalidation argument.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bgpcmp/bgp/propagation_detail.h"
#include "bgpcmp/netbase/lookup.h"

namespace bgpcmp::bgp {

using topo::CityId;
using topo::LinkId;

/// What happened to the announcement or the sessions carrying it.
enum class ChurnKind : std::uint8_t {
  Withdraw,        ///< stop announcing the prefix on a session (edge)
  Announce,        ///< (re)announce on a session; also clears a grooming suppress
  Prepend,         ///< set the AS-path prepend count on a session
  SuppressEdge,    ///< grooming suppress: withhold the prefix from a session
  LinkFlap,        ///< toggle one physical link down/up
  FacilityOutage,  ///< toggle every link in a city down/up (facility power)
};

[[nodiscard]] std::string_view churn_kind_name(ChurnKind k);

/// One event in a churn stream. Which field matters depends on `kind`; use
/// the factories so streams read like an operator log.
struct ChurnEvent {
  ChurnKind kind = ChurnKind::Withdraw;
  EdgeId edge = kNoEdge;         ///< Withdraw / Announce / Prepend / SuppressEdge
  LinkId link = topo::kNoLink;   ///< LinkFlap
  CityId city = topo::kNoCity;   ///< FacilityOutage
  int prepend = 0;               ///< Prepend: new total count (0 clears)

  static ChurnEvent withdraw(EdgeId e) { return {ChurnKind::Withdraw, e}; }
  static ChurnEvent announce(EdgeId e) { return {ChurnKind::Announce, e}; }
  static ChurnEvent prepend_set(EdgeId e, int count) {
    ChurnEvent ev{ChurnKind::Prepend, e};
    ev.prepend = count;
    return ev;
  }
  static ChurnEvent suppress_edge(EdgeId e) { return {ChurnKind::SuppressEdge, e}; }
  static ChurnEvent link_flap(LinkId l) {
    ChurnEvent ev{ChurnKind::LinkFlap};
    ev.link = l;
    return ev;
  }
  static ChurnEvent facility_outage(CityId c) {
    ChurnEvent ev{ChurnKind::FacilityOutage};
    ev.city = c;
    return ev;
  }
};

/// What one reconverge() did — the locality measure the churn bench (E18)
/// reports: invalidated counts bound the re-relaxed frontier, changed_routes
/// is how much of the table actually moved.
struct ChurnStats {
  std::size_t events = 0;          ///< events applied this batch
  std::size_t changed_sessions = 0;  ///< origin sessions whose (announced, prepend) changed
  std::size_t invalidated_customer = 0;  ///< stage-1 class states cleared
  std::size_t invalidated_peer = 0;      ///< stage-2 class states recomputed
  std::size_t invalidated_provider = 0;  ///< stage-3 class states cleared
  std::size_t worklist_pops = 0;   ///< relaxation steps across all stages
  std::size_t changed_routes = 0;  ///< ASes whose selected BestRoute changed

  [[nodiscard]] std::size_t invalidated() const {
    return invalidated_customer + invalidated_peer + invalidated_provider;
  }
};

/// Incremental re-convergence for one announced prefix.
///
/// Lifecycle: construct (full converge, retaining per-class state), then
/// alternate reconverge(events) — a single-threaded warm-delta step — with
/// read-only table() queries. Different prefixes get independent engines and
/// may re-converge concurrently (RouteCache fans exactly that out); one
/// engine is single-writer like every warm-phase structure, but is not
/// thread-pinned — successive fork-join waves may run it on different
/// workers (docs/PARALLELISM.md, index-addressed slots).
class ChurnEngine {
 public:
  /// Full three-stage converge of `base` (the announcement before any
  /// events); `graph` must outlive the engine and stay immutable.
  ChurnEngine(const AsGraph* graph, OriginSpec base);

  /// Apply an event batch and re-converge from the changed frontier. A
  /// warm-delta step: mutates the state the constructor converged and leaves
  /// it converged, so table() is complete before and after every call.
  ChurnStats reconverge(std::span<const ChurnEvent> events);

  /// The current routing table (post every event applied so far). Read-only;
  /// safe from concurrent readers between reconverge() calls.
  [[nodiscard]] const RouteTable& table() const { return table_; }

  /// The announcement as the network currently sees it: the groomed base
  /// spec with withdrawn sessions and links downed by flaps/outages
  /// materialized into suppress/scope. compute_routes_reference over this
  /// spec is the golden the incremental table is pinned against.
  [[nodiscard]] const OriginSpec& effective_spec() const { return eff_; }

  [[nodiscard]] AsIndex origin() const { return base_.origin; }

 private:
  /// Epoch-stamped pre-delta snapshots of one class column: the first write
  /// to an AS in a reconverge() saves its old state, so change detection and
  /// the final table patch walk only the touched frontier, never all n ASes.
  struct SavedClass {
    std::vector<std::uint32_t> stamp;
    std::vector<detail::ClassState> old;
    std::vector<AsIndex> touched;
    std::uint32_t epoch = 0;

    void reset(std::size_t n) {
      stamp.assign(n, 0);
      old.assign(n, detail::ClassState{});
      touched.clear();
      epoch = 0;
    }
    void begin() {
      ++epoch;
      touched.clear();
    }
    /// Record `cur` as i's pre-delta state (first save this epoch wins).
    void save(AsIndex i, const detail::ClassState& cur) {
      if (stamp[i] == epoch) return;
      stamp[i] = epoch;
      old[i] = cur;
      touched.push_back(i);
    }
    [[nodiscard]] bool saved(AsIndex i) const { return stamp[i] == epoch; }
  };

  /// Recompute eff_ from base_ and the down sets.
  [[nodiscard]] OriginSpec materialize() const;
  /// Full converge under eff_ (construction only; deltas re-relax in place).
  void converge();

  const AsGraph* graph_;
  OriginSpec base_;  ///< groomed announcement (Prepend/SuppressEdge/Announce mutate this)
  OriginSpec eff_;   ///< base_ with session/link/facility state folded in
  LookupSet<EdgeId> edge_down_;    ///< Withdraw'd sessions
  LookupSet<LinkId> link_down_;    ///< LinkFlap'd links
  LookupSet<CityId> city_down_;    ///< FacilityOutage'd cities
  detail::Tables tables_;  ///< per-class fixpoint state, kept across deltas
  RouteTable table_;       ///< selection over tables_, patched per delta
  SavedClass cust_saved_;  ///< stage-1 delta snapshots
  SavedClass peer_saved_;  ///< stage-2 delta snapshots
  SavedClass prov_saved_;  ///< stage-3 delta snapshots
  detail::Worklist worklist_;      ///< reused across deltas (drained = reset)
  std::vector<AsIndex> scratch_;   ///< BFS frontier for invalidation closures
};

}  // namespace bgpcmp::bgp
