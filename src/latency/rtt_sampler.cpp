#include "bgpcmp/latency/rtt_sampler.h"

#include <algorithm>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::lat {

Milliseconds RttSampler::sample_min_rtt(Milliseconds base, int round_trips,
                                        Rng& rng) const {
  BGPCMP_CHECK_GE(round_trips, 1, "a measurement needs at least one round trip");
  // Min of n iid Exp(mean m) residuals is Exp(mean m/n).
  const double residual =
      rng.exponential(config_.noise_scale_ms / static_cast<double>(round_trips));
  return base + Milliseconds{residual};
}

Milliseconds RttSampler::sample_ping(Milliseconds base, Rng& rng) const {
  return base + Milliseconds{rng.exponential(config_.noise_scale_ms)};
}

}  // namespace bgpcmp::lat
