// Weighted empirical CDF / CCDF over observations.
//
// Figures 1, 2, and 4 are traffic-weighted CDFs; Figure 3 is a CCDF. This
// class accumulates (value, weight) pairs and answers both directions, plus
// produces evenly spaced series for the bench printers.
#pragma once

#include <string>
#include <vector>

#include "bgpcmp/netbase/thread_annotations.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {

/// One (x, y) point of a CDF/CCDF series.
struct SeriesPoint {
  double x = 0.0;
  double y = 0.0;
};

// Not thread-safe: the query methods lazily (re)build sorted state through
// mutable members. CDFs are built and rendered by one thread (typically the
// main thread aggregating a study's output); share across threads only
// behind external synchronization. The BGPCMP_SINGLE_THREAD markers make
// that contract machine-readable (tools/detlint rule D2), and the lazy sort
// carries an OwningThread assertion so a violation trips at runtime in
// builds with BGPCMP_THREAD_CHECKS on.
class BGPCMP_SINGLE_THREAD WeightedCdf {
 public:
  WeightedCdf() = default;

  void add(double value, double weight = 1.0);

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
  void ensure_sorted() const;

  mutable std::vector<Weighted> obs_ BGPCMP_SINGLE_THREAD;
  mutable std::vector<double> cum_weight_ BGPCMP_SINGLE_THREAD;  // parallel to sorted obs_
  mutable bool sorted_ BGPCMP_SINGLE_THREAD = true;
  OwningThread lazy_owner_;  ///< pins the thread running the lazy sort
};

}  // namespace bgpcmp::stats
