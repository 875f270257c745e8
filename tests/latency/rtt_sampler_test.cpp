#include "bgpcmp/latency/rtt_sampler.h"

#include <gtest/gtest.h>

namespace bgpcmp::lat {
namespace {

TEST(RttSampler, NeverBelowFloor) {
  const RttSampler sampler;
  Rng rng{1};
  const Milliseconds base{25.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(sampler.sample_min_rtt(base, 5, rng).value(), base.value());
    EXPECT_GE(sampler.sample_ping(base, rng).value(), base.value());
  }
}

TEST(RttSampler, MoreRoundTripsTightenMinRtt) {
  const RttSampler sampler;
  Rng rng{2};
  double sum1 = 0.0;
  double sum20 = 0.0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    sum1 += sampler.sample_min_rtt(Milliseconds{10}, 1, rng).value();
    sum20 += sampler.sample_min_rtt(Milliseconds{10}, 20, rng).value();
  }
  EXPECT_GT(sum1 / kN, sum20 / kN);
  EXPECT_NEAR(sum20 / kN, 10.0 + 1.6 / 20.0, 0.05);
}

TEST(RttSampler, ResidualMeanMatchesConfig) {
  SamplerConfig cfg;
  cfg.noise_scale_ms = 4.0;
  const RttSampler sampler{cfg};
  Rng rng{3};
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += sampler.sample_ping(Milliseconds{0}, rng).value();
  }
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(RttSampler, DeterministicGivenRng) {
  const RttSampler sampler;
  Rng a{5};
  Rng b{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(sampler.sample_min_rtt(Milliseconds{1}, 3, a).value(),
                     sampler.sample_min_rtt(Milliseconds{1}, 3, b).value());
  }
}

}  // namespace
}  // namespace bgpcmp::lat
