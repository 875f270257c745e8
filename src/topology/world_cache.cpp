#include "bgpcmp/topology/world_cache.h"

namespace bgpcmp::topo {

std::shared_ptr<const Internet> WorldCache::get(const InternetConfig& config) {
  const Key key{internet_config_fingerprint(config), config.seed};
  std::promise<std::shared_ptr<const Internet>> promise;
  WorldFuture future;
  bool builder = false;
  {
    const MutexLock lock{mu_};
    const auto it = worlds_.find(key);
    if (it != worlds_.end()) {
      future = it->second;
    } else {
      builder = true;
      future = promise.get_future().share();
      worlds_.emplace(key, future);
    }
  }
  if (builder) {
    // Build outside the lock: distinct configs (e.g. a seed sweep's workers)
    // must not serialize behind each other.
    try {
      auto world = std::make_shared<Internet>(build_internet(config));
      (void)world->graph.edge_index();  // pre-warm the CSR; copies share it
      promise.set_value(std::move(world));
    } catch (...) {
      promise.set_exception(std::current_exception());
      {
        const MutexLock lock{mu_};
        worlds_.erase(key);  // don't cache a failed build
      }
      throw;
    }
  }
  return future.get();
}

WorldCache& WorldCache::global() {
  static WorldCache cache;
  return cache;
}

}  // namespace bgpcmp::topo
