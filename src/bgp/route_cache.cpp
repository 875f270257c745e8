#include "bgpcmp/bgp/route_cache.h"

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

void RouteCache::warm(std::span<const AsIndex> origins, exec::ThreadPool& pool) {
  // The distinct uncached origins, in first-appearance order.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  std::vector<AsIndex> todo;
  for (const AsIndex o : origins) {
    if (slots_.at(o).has_value() || seen[o] != 0) continue;
    seen[o] = 1;
    todo.push_back(o);
  }
  if (todo.empty()) return;
  // Build the CSR index before the fan-out so workers share one snapshot
  // instead of racing to construct it (the race is benign but wasteful).
  (void)graph_->edge_index();
  std::vector<RouteTable> tables =
      exec::parallel_map(pool, todo.size(),
                         [&](std::size_t i) { return compute_routes(*graph_, todo[i]); });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    slots_[todo[i]].emplace(std::move(tables[i]));
    ++cached_;
  }
}

std::vector<ChurnStats> RouteCache::reconverge(std::span<const OriginChurn> wave,
                                               exec::ThreadPool& pool) {
  // Engines are keyed by origin, so distinctness is what makes the parallel
  // wave race-free; build them (and the CSR index) before the fan-out so
  // workers only touch their own engine.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  for (const OriginChurn& oc : wave) {
    BGPCMP_CHECK(slots_.at(oc.origin).has_value(),
                 "reconverge needs a warmed origin (warm() it first)");
    BGPCMP_CHECK(seen[oc.origin] == 0, "a reconverge wave must not repeat an origin");
    seen[oc.origin] = 1;
    std::unique_ptr<ChurnEngine>& eng = engines_[oc.origin];
    if (!eng) eng = std::make_unique<ChurnEngine>(graph_, OriginSpec::everywhere(oc.origin));
  }
  (void)graph_->edge_index();
  std::vector<ChurnStats> stats =
      exec::parallel_map(pool, wave.size(), [&](std::size_t i) {
        return engines_[wave[i].origin]->reconverge(wave[i].events);
      });
  // Publish by copy: readers hold pointers into the slot across find(), so
  // the slot must never alias the engine's mutable working table.
  for (const OriginChurn& oc : wave) slots_[oc.origin] = engines_[oc.origin]->table();
  return stats;
}

}  // namespace bgpcmp::bgp
