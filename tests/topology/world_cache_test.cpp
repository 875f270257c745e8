#include "bgpcmp/topology/world_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>

#include "bgpcmp/exec/thread_pool.h"

namespace bgpcmp::topo {
namespace {

InternetConfig small_config(std::uint64_t seed = 5) {
  InternetConfig cfg;
  cfg.seed = seed;
  cfg.tier1_count = 6;
  cfg.transit_count = 20;
  cfg.eyeball_count = 40;
  cfg.stub_count = 20;
  return cfg;
}

TEST(WorldCache, SecondGetIsAHitOnTheSameSnapshot) {
  WorldCache cache;
  const auto a = cache.get(small_config());
  const auto b = cache.get(small_config());
  EXPECT_EQ(a.get(), b.get());  // one snapshot, not an equal copy
}

TEST(WorldCache, SeedIsPartOfTheKey) {
  WorldCache cache;
  const auto a = cache.get(small_config(5));
  const auto b = cache.get(small_config(6));
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(internet_fingerprint(*a), internet_fingerprint(*b));
  // Both stay cached side by side.
  EXPECT_EQ(cache.get(small_config(5)).get(), a.get());
  EXPECT_EQ(cache.get(small_config(6)).get(), b.get());
}

TEST(WorldCache, NonSeedKnobsArePartOfTheKey) {
  WorldCache cache;
  const auto a = cache.get(small_config());
  auto cfg = small_config();
  cfg.transit_peer_prob += 0.05;
  const auto b = cache.get(cfg);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.get(cfg).get(), b.get());
}

TEST(WorldCache, CachedWorldMatchesAFreshBuild) {
  WorldCache cache;
  const auto cached = cache.get(small_config());
  EXPECT_EQ(internet_fingerprint(*cached),
            internet_fingerprint(build_internet(small_config())));
}

TEST(WorldCache, ConcurrentSameKeyRequestsShareOneBuild) {
  WorldCache cache;
  exec::ThreadPool pool{4};
  const auto worlds = exec::parallel_map(
      pool, 8, [&](std::size_t) { return cache.get(small_config()); });
  std::set<const Internet*> distinct;
  for (const auto& w : worlds) distinct.insert(w.get());
  EXPECT_EQ(distinct.size(), 1u);
  // The shared build is the cached entry, not a one-off.
  EXPECT_EQ(cache.get(small_config()).get(), *distinct.begin());
}

TEST(WorldCache, GlobalIsOneInstance) {
  EXPECT_EQ(&WorldCache::global(), &WorldCache::global());
}

// --- config fingerprint (the cache key's non-seed half) ---

TEST(WorldCacheConfigFingerprint, SeedIsExcluded) {
  auto a = small_config(5);
  auto b = small_config(987654);
  EXPECT_EQ(internet_config_fingerprint(a), internet_config_fingerprint(b));
}

TEST(WorldCacheConfigFingerprint, EveryKnobChangesTheHash) {
  const auto base = internet_config_fingerprint(InternetConfig{});
  const auto perturbed = [&](auto mutate) {
    InternetConfig cfg;
    mutate(cfg);
    return internet_config_fingerprint(cfg);
  };
  EXPECT_NE(perturbed([](auto& c) { c.tier1_count += 1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.transit_count += 1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.eyeball_count += 1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.stub_count += 1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.ixps_per_region += 1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.transit_tier1_providers_mean += 0.1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.transit_peer_prob += 0.01; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.eyeball_transit_providers_mean += 0.1; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.eyeball_tier1_provider_prob += 0.01; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.eyeball_peering_openness += 0.01; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.stub_dual_home_prob += 0.01; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.tier1_link_capacity += 1.0; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.transit_link_capacity += 1.0; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.eyeball_transit_capacity += 1.0; }), base);
  EXPECT_NE(perturbed([](auto& c) { c.stub_capacity += 1.0; }), base);
}

TEST(WorldCacheConfigFingerprint, FieldCountTripwire) {
  // seed + 4 counts + ixps_per_region + 10 doubles, on the LP64 reference
  // platform. If this fails you added (or resized) an InternetConfig field:
  // extend internet_config_fingerprint to cover it, add a perturbation case
  // above, then update this constant.
  EXPECT_EQ(sizeof(InternetConfig), 112u);
}

}  // namespace
}  // namespace bgpcmp::topo
