// Descriptive summary statistics (single-pass, numerically stable).
#pragma once

#include <cstddef>
#include <string>

namespace bgpcmp::stats {

/// Streaming mean/variance/min/max via Welford's algorithm.
class Summary {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Sample variance (n-1 denominator); requires count() > 1.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }

  /// Human-readable one-liner, e.g. "n=120 mean=4.31 sd=1.02 min=2.1 max=9.9".
  [[nodiscard]] std::string str() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace bgpcmp::stats
