// Regression pin on RNG determinism: the raw engine stream and fork-seed
// derivation are fully specified (mt19937_64 + the repo's splitmix/FNV
// mixing), so their values must never drift across refactors, compilers, or
// standard libraries — "same seed => same figure" rests on this. Golden
// values were recorded from the seed implementation; a mismatch means a
// breaking change to every recorded experiment.
#include <gtest/gtest.h>

#include <cstdint>

#include "bgpcmp/core/scenario.h"
#include "bgpcmp/netbase/rng.h"

namespace bgpcmp {
namespace {

// FNV-1a over the first `n` raw engine draws.
std::uint64_t engine_stream_hash(std::uint64_t seed, int n) {
  Rng rng{seed};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < n; ++i) {
    std::uint64_t v = rng.engine()();
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(RngDeterminism, EngineStreamMatchesGolden) {
  EXPECT_EQ(engine_stream_hash(42, 64), UINT64_C(0xb70dd3e26a34c07b));
  EXPECT_EQ(engine_stream_hash(0, 64), UINT64_C(0x1ef2e9ee7e98a8a2));
  EXPECT_EQ(engine_stream_hash(0xdeadbeef, 64), UINT64_C(0x6b0f30a32dfd64f3));
}

TEST(RngDeterminism, ForkSeedDerivationMatchesGolden) {
  const Rng root{7};
  EXPECT_EQ(root.fork("internet").base_seed(), UINT64_C(0x2d05aeddb0abf5a7));
  EXPECT_EQ(root.fork("provider").base_seed(), UINT64_C(0x0258916d907c5e6b));
  EXPECT_EQ(root.fork("clients").base_seed(), UINT64_C(0xbda89d7fde38835d));
  EXPECT_EQ(root.fork("demand").base_seed(), UINT64_C(0xd510012400f67e15));
}

TEST(RngDeterminism, MasterSeedComponentDerivationMatchesGolden) {
  const auto cfg = core::ScenarioConfig::with_master_seed(7);
  const Rng root{7};
  EXPECT_EQ(cfg.internet.seed, root.fork("internet").base_seed());
  EXPECT_EQ(cfg.provider.seed, root.fork("provider").base_seed());
  EXPECT_EQ(cfg.clients.seed, root.fork("clients").base_seed());
  EXPECT_EQ(cfg.demand.seed, root.fork("demand").base_seed());
}

TEST(RngDeterminism, AllSamplersAreBitwiseReproducible) {
  Rng a{1234};
  Rng b{1234};
  const double weights[] = {0.5, 1.5, 3.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.uniform_int(-5, 17), b.uniform_int(-5, 17));
    EXPECT_EQ(a.chance(0.3), b.chance(0.3));
    EXPECT_EQ(a.normal(3.0, 2.0), b.normal(3.0, 2.0));
    EXPECT_EQ(a.lognormal(0.5, 0.25), b.lognormal(0.5, 0.25));
    EXPECT_EQ(a.exponential(2.0), b.exponential(2.0));
    EXPECT_EQ(a.pareto(1.0, 1.5), b.pareto(1.0, 1.5));
    EXPECT_EQ(a.index(9), b.index(9));
    EXPECT_EQ(a.weighted_index(weights), b.weighted_index(weights));
  }
}

}  // namespace
}  // namespace bgpcmp
