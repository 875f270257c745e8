// Weighted empirical CDF / CCDF over observations.
//
// Figures 1, 2, and 4 are traffic-weighted CDFs; Figure 3 is a CCDF. This
// class holds (value, weight) pairs and answers both directions, plus
// produces evenly spaced series for the bench printers.
#pragma once

#include <string>
#include <vector>

#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {

/// One (x, y) point of a CDF/CCDF series.
struct SeriesPoint {
  double x = 0.0;
  double y = 0.0;
};

/// Complete when constructed: the constructor checks the observations,
/// sorts them once and builds the cumulative weights, and every query is a
/// const read of that state, so concurrent queries need no lock.
class WeightedCdf {
 public:
  /// Takes the observations by value; pass them by move so none is copied.
  /// Every value must be a number (NaN has no place in a sort order) and
  /// every weight a non-negative number; each is a BGPCMP_CHECK. An empty
  /// CDF is allowed, but querying it is not.
  explicit WeightedCdf(std::vector<Weighted> obs);

  [[nodiscard]] bool empty() const { return obs_.empty(); }
  [[nodiscard]] std::size_t count() const { return obs_.size(); }

  /// Weighted fraction of observations with value <= x.
  [[nodiscard]] double fraction_at_most(double x) const;
  /// Weighted fraction with value > x (CCDF).
  [[nodiscard]] double fraction_above(double x) const;
  /// Inverse CDF.
  [[nodiscard]] double quantile(double q) const;

  /// CDF series sampled at `points` evenly spaced x values across [lo, hi].
  [[nodiscard]] std::vector<SeriesPoint> cdf_series(double lo, double hi,
                                                    std::size_t points) const;
  /// CCDF series sampled likewise.
  [[nodiscard]] std::vector<SeriesPoint> ccdf_series(double lo, double hi,
                                                     std::size_t points) const;

 private:
  std::vector<Weighted> obs_;       ///< sorted by value
  std::vector<double> cum_weight_;  ///< running weight, parallel to obs_
};

}  // namespace bgpcmp::stats
