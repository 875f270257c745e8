// Exact and weighted quantiles.
//
// Every figure in the paper is a quantile object: Fig 1/2/4 are CDFs of
// *median* (and 75th-pct) differences, Fig 5 is a per-country *median*.
// We implement exact quantiles with linear interpolation and traffic-weighted
// quantiles matching the paper's "weigh the results by total traffic volume".
#pragma once

#include <span>
#include <vector>

namespace bgpcmp::stats {

/// A (value, weight) observation for weighted statistics.
struct Weighted {
  double value = 0.0;
  double weight = 1.0;
};

/// Exact quantile (q in [0,1]) with linear interpolation between order
/// statistics (type-7, the numpy/R default). Input need not be sorted.
/// Requires a non-empty input.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Convenience: median.
[[nodiscard]] double median(std::span<const double> values);

/// Quantile of values sorted in place (avoids a copy for hot paths).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted_values, double q);

/// Weighted quantile: the smallest value v such that the cumulative weight of
/// observations <= v reaches q * total_weight. Requires non-empty input with
/// positive total weight.
[[nodiscard]] double weighted_quantile(std::span<const Weighted> obs, double q);

}  // namespace bgpcmp::stats
