// Internal building blocks of the three-stage Gao-Rexford propagation,
// shared by the full converge (propagation.cpp) and the incremental churn
// engine (churn.cpp). Exposed as a header so the churn engine can retain and
// re-relax the per-class state a full run produces — and so unit tests can
// pin the Worklist's re-entry semantics directly. Not a stable API surface:
// everything here is an implementation detail of the bgp target.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bgpcmp/bgp/origin.h"
#include "bgpcmp/bgp/route.h"

namespace bgpcmp::bgp::detail {

inline constexpr std::uint32_t kInfLen = std::numeric_limits<std::uint32_t>::max();

/// Best-so-far route of one preference class at one AS.
struct ClassState {
  std::uint32_t len = kInfLen;
  AsIndex next_hop = kNoAs;
  EdgeId via_edge = kNoEdge;

  [[nodiscard]] bool valid() const { return len != kInfLen; }

  friend bool operator==(const ClassState& a, const ClassState& b) {
    return a.len == b.len && a.next_hop == b.next_hop && a.via_edge == b.via_edge;
  }
};

/// True if (len, next-hop ASN, next-hop index) is strictly better than `cur`
/// — BGP's shortest-path-then-lowest-neighbor tie-breaking within a LocalPref
/// class. `asns` is the dense per-AS ASN array (EdgeIndex::asns()). The AS
/// index settles neighbors that share an ASN (AsGraph accepts duplicates),
/// so the winner never depends on visit order.
inline bool better(std::span<const std::uint32_t> asns, std::uint32_t len, AsIndex nh,
                   const ClassState& cur) {
  if (len != cur.len) return len < cur.len;
  const std::uint32_t a = asns[nh];
  const std::uint32_t b = asns[cur.next_hop];
  return a != b ? a < b : nh < cur.next_hop;
}

/// Per-class best-so-far state for every AS; the fixpoint of the three-stage
/// relaxation. select_best() collapses it to the table an AS actually uses.
struct Tables {
  std::vector<ClassState> cust;
  std::vector<ClassState> peer;
  std::vector<ClassState> prov;

  explicit Tables(std::size_t n = 0) : cust(n), peer(n), prov(n) {}
};

/// Length of the route `as` actually selects (class preference first), or
/// kInfLen if unrouted. `origin` always selects itself with length 0.
inline std::uint32_t best_len(const Tables& t, AsIndex as, AsIndex origin) {
  if (as == origin) return 0;
  if (t.cust[as].valid()) return t.cust[as].len;
  if (t.peer[as].valid()) return t.peer[as].len;
  if (t.prov[as].valid()) return t.prov[as].len;
  return kInfLen;
}

/// FIFO worklist over AS indices with membership dedup: pushing an AS that is
/// already queued is a no-op, so each relaxation wave visits a node once. A
/// popped AS may re-enter later (a shorter customer route can reach it after
/// its first visit, and the churn engine's provider descent re-queues), so
/// convergence is by monotone relaxation, not single-visit.
class Worklist {
 public:
  explicit Worklist(std::size_t n) : queued_(n, 0) {}

  void push(AsIndex i) {
    if (queued_[i] != 0) return;
    queued_[i] = 1;
    items_.push_back(i);
  }

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }

  AsIndex pop() {
    const AsIndex i = items_[head_++];
    queued_[i] = 0;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return i;
  }

 private:
  std::vector<std::uint8_t> queued_;
  std::vector<AsIndex> items_;
  std::size_t head_ = 0;
};

/// Collapse one AS's per-class state to the route it selects: LocalPref class
/// order, already tie-broken within class. Checks the uint32 relaxation
/// length fits BestRoute's uint16 before narrowing — absurd prepend values
/// must fail loudly, not wrap.
[[nodiscard]] BestRoute select_one(const AsGraph& graph, const Tables& t, AsIndex i,
                                   AsIndex origin);

/// Selection over every AS (the full-table form of select_one).
[[nodiscard]] RouteTable select_best(const AsGraph& graph, const Tables& t,
                                     AsIndex origin);

/// Validate an origin spec: real in-range origin, non-negative prepends on
/// edges of the graph. Both propagation entry points and the churn engine
/// call this before touching the spec.
void check_origin(const AsGraph& graph, const OriginSpec& origin);

/// The three-stage relaxation to its least fixpoint, keeping the per-class
/// state (compute_routes is select_best over this). Stage 3 is a pull sweep
/// over EdgeIndex::provider_first(); a cyclic provider hierarchy has no such
/// order and fails a BGPCMP_CHECK.
[[nodiscard]] Tables compute_tables(const AsGraph& graph, const OriginSpec& origin);

}  // namespace bgpcmp::bgp::detail
