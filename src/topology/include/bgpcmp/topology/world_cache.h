// Memoized world construction.
//
// Benches and seed sweeps routinely build the same synthetic Internet many
// times (the e17 sweep builds every seed's world twice: once per provider
// preset). A generated world is immutable once built, so they can all copy
// from one cached snapshot instead. Keyed by (config fingerprint, seed):
// the fingerprint covers every non-seed InternetConfig field, so any knob
// change is a different world. Entries live as long as the cache; its
// callers hold a handful of worlds (e17's seeds, micro_core's one).
//
// Deliberately NOT used by Scenario::make(): the determinism audit exists to
// compare two *independent* builds, and a cache would collapse them into one.
// Callers opt in via Scenario::make_cached() or WorldCache::global().
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <utility>

#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/topology/topology_gen.h"

namespace bgpcmp::topo {

/// Thread-safe memoization of build_internet results. Distinct configs build
/// concurrently; concurrent requests for the same config share one build
/// (losers wait on the winner's future). Cached worlds have their CSR edge
/// index pre-warmed, so copies taken from a snapshot share it until their
/// first mutation.
class WorldCache {
 public:
  /// The world for `config`, building and caching it on first request.
  /// The returned snapshot is shared and immutable — callers needing a
  /// mutable world (e.g. to attach a provider) must copy it. Misses run
  /// build_internet under the cache's own lock.
  [[nodiscard]] std::shared_ptr<const Internet> get(const InternetConfig& config);

  /// Process-wide instance used by benches and seed sweeps.
  static WorldCache& global();

 private:
  /// (non-seed config fingerprint, seed)
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  using WorldFuture = std::shared_future<std::shared_ptr<const Internet>>;

  // Leaf lock: taken for map lookups/inserts only; build_internet runs
  // outside it, so nothing is ever acquired while mu_ is held.
  mutable Mutex mu_ BGPCMP_ACQUIRES_ORDER(40);
  std::map<Key, WorldFuture> worlds_ BGPCMP_GUARDED_BY(mu_);
};

}  // namespace bgpcmp::topo
