// Memoized route computation with a parallel warm phase.
//
// Serving and churn read routes toward a fixed set of client origins; the
// cache computes each table once. Tables are stable because the graph is
// immutable after construction.
//
// Warm/read contract: call warm() with every origin a phase will query; it
// fans the tables out across a thread pool into index-addressed slots, so
// the result is byte-identical at any pool width (docs/PARALLELISM.md).
// Then query find() freely from concurrent readers. Nothing computes on a
// read: an origin that was never warmed reads as nullptr.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bgpcmp/bgp/churn.h"
#include "bgpcmp/bgp/propagation.h"

namespace bgpcmp::exec {
class ThreadPool;
}  // namespace bgpcmp::exec

namespace bgpcmp::bgp {

/// One origin's share of a churn wave: the events hitting its sessions.
struct OriginChurn {
  AsIndex origin = topo::kNoAs;
  std::vector<ChurnEvent> events;
};

class RouteCache {
 public:
  explicit RouteCache(const AsGraph* graph)
      : graph_(graph), slots_(graph->as_count()), engines_(graph->as_count()) {}

  /// Compute the tables for every distinct uncached origin, fanned out over
  /// `pool` via parallel_map. Slots are keyed by origin index, so warming
  /// never moves existing tables, and the result is byte-identical at any
  /// pool width.
  void warm(std::span<const AsIndex> origins, exec::ThreadPool& pool);

  /// Install a precomputed table into `origin`'s slot (snapshot restore:
  /// core/snapshot.h deserializes warmed tables instead of recomputing
  /// them). Same slot discipline as warm() — and the installed bytes are
  /// golden-pinned equal to a recompute by the snapshot's table digests.
  void install(AsIndex origin, RouteTable table) {
    std::optional<RouteTable>& slot = slots_.at(origin);
    if (slot.has_value()) return;  // warm() semantics: first fill wins
    slot.emplace(std::move(table));
    ++cached_;
  }

  /// The warmed table toward `origin`, or nullptr if it was never computed.
  /// Const and read-only: safe from concurrent readers after warming.
  [[nodiscard]] const RouteTable* find(AsIndex origin) const {
    const std::optional<RouteTable>& slot = slots_.at(origin);
    return slot.has_value() ? &*slot : nullptr;
  }

  /// Apply each origin's event batch to its warmed table and re-converge it
  /// incrementally from the changed frontier (churn.h), fanned out over
  /// `pool`. A warm-delta step: every origin must already be warmed, and its
  /// slot stays warmed (byte-identical to recomputing under the post-event
  /// announcement). An origin's first reconverge builds its churn engine off
  /// the warmed state. Origins in one wave must be distinct: engines and
  /// slots are keyed by origin index, so distinct origins touch disjoint
  /// state and the result is byte-identical at any pool width — the same
  /// index-addressed-slot discipline as warm() (docs/PARALLELISM.md). A
  /// one-origin wave is the serial case.
  std::vector<ChurnStats> reconverge(std::span<const OriginChurn> wave,
                                     exec::ThreadPool& pool);

  /// Number of origins with a computed table.
  [[nodiscard]] std::size_t size() const { return cached_; }

 private:
  const AsGraph* graph_;
  std::vector<std::optional<RouteTable>> slots_;  ///< keyed by origin index
  /// Churn engines, keyed by origin index like slots_ (so parallel
  /// reconverge waves over distinct origins write disjoint entries), each
  /// built on its origin's first reconverge: a full converge that must agree
  /// with the warmed slot (golden-pinned in churn_test).
  std::vector<std::unique_ptr<ChurnEngine>> engines_;
  std::size_t cached_ = 0;
};

}  // namespace bgpcmp::bgp
