// Measurement-noise layer: turns a model RTT into observed per-session
// TCP MinRTT samples (the Facebook dataset's metric) or ping samples (the
// Speedchecker campaign's metric).
//
// MinRTT of a session with more round trips sits closer to the path floor;
// we model the residual above the floor as exponential noise shrinking with
// the number of samples the minimum is taken over.
#pragma once

#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/netbase/units.h"

namespace bgpcmp::lat {

struct SamplerConfig {
  double noise_scale_ms = 1.6;  ///< mean residual above floor for 1 sample
};

class RttSampler {
 public:
  explicit RttSampler(SamplerConfig config = {}) : config_(config) {}

  /// Observed MinRTT for one session whose minimum is over `round_trips`
  /// samples of a path with floor `base`.
  [[nodiscard]] Milliseconds sample_min_rtt(Milliseconds base, int round_trips,
                                            Rng& rng) const;

  /// Observed single ping RTT.
  [[nodiscard]] Milliseconds sample_ping(Milliseconds base, Rng& rng) const;

 private:
  SamplerConfig config_;
};

}  // namespace bgpcmp::lat
