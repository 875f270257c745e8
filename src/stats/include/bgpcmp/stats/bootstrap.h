// Bootstrap confidence intervals.
//
// Figure 1's shaded region is "the distribution of the lower and upper bounds
// of the confidence intervals around the performance difference". We compute
// percentile-bootstrap CIs for the difference of two medians of small
// per-window samples.
#pragma once

#include <span>

#include "bgpcmp/netbase/rng.h"

namespace bgpcmp::stats {

struct ConfidenceInterval {
  double lower = 0.0;
  double point = 0.0;
  double upper = 0.0;

  [[nodiscard]] double width() const { return upper - lower; }
  [[nodiscard]] bool contains(double v) const { return lower <= v && v <= upper; }
};

struct BootstrapOptions {
  int resamples = 200;
  double confidence = 0.95;  ///< two-sided level, e.g. 0.95 -> [2.5%, 97.5%]
};

/// Percentile-bootstrap CI for the *difference of medians*
/// median(a) - median(b), resampling both sides independently.
/// Deterministic given the Rng. Requires both inputs non-empty.
[[nodiscard]] ConfidenceInterval bootstrap_median_diff_ci(
    std::span<const double> a, std::span<const double> b, Rng& rng,
    const BootstrapOptions& opts = {});

}  // namespace bgpcmp::stats
