#include "bgpcmp/stats/cdf.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::stats {

WeightedCdf::WeightedCdf(std::vector<Weighted> obs) : obs_(std::move(obs)) {
  for (const Weighted& o : obs_) {
    BGPCMP_CHECK(!std::isnan(o.value), "CDF values must not be NaN");
    BGPCMP_CHECK(!std::isnan(o.weight), "CDF weights must not be NaN");
    BGPCMP_CHECK_GE(o.weight, 0.0, "CDF weights must be non-negative");
  }
  std::sort(obs_.begin(), obs_.end(),
            [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
  cum_weight_.resize(obs_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < obs_.size(); ++i) {
    acc += obs_[i].weight;
    cum_weight_[i] = acc;
  }
}

double WeightedCdf::fraction_at_most(double x) const {
  BGPCMP_CHECK(!obs_.empty(), "CDF has no observations");
  const double total = cum_weight_.back();
  if (total <= 0.0) return 0.0;
  // Last index with value <= x.
  const auto it = std::upper_bound(
      obs_.begin(), obs_.end(), x,
      [](double v, const Weighted& w) { return v < w.value; });
  if (it == obs_.begin()) return 0.0;
  const auto idx = static_cast<std::size_t>(it - obs_.begin()) - 1;
  return cum_weight_[idx] / total;
}

double WeightedCdf::fraction_above(double x) const {
  return 1.0 - fraction_at_most(x);
}

double WeightedCdf::quantile(double q) const {
  BGPCMP_CHECK(!obs_.empty(), "CDF has no observations");
  BGPCMP_CHECK_GE(q, 0.0, "quantile rank out of range");
  BGPCMP_CHECK_LE(q, 1.0, "quantile rank out of range");
  // Binary-search the cumulative weights the constructor built rather than
  // re-sorting a copy of every observation per call. Matches
  // weighted_quantile exactly: the first observation whose cumulative
  // weight reaches q * total, values bit-identical.
  const double total = cum_weight_.back();
  BGPCMP_CHECK_GT(total, 0.0, "weighted quantile needs positive total weight");
  const double target = q * total;
  auto it = std::lower_bound(cum_weight_.begin(), cum_weight_.end(), target);
  if (it == cum_weight_.end()) --it;  // q == 1 under floating-point slop
  return obs_[static_cast<std::size_t>(it - cum_weight_.begin())].value;
}

std::vector<SeriesPoint> WeightedCdf::cdf_series(double lo, double hi,
                                                 std::size_t points) const {
  BGPCMP_CHECK_GE(points, 2, "a CDF series needs at least two points");
  BGPCMP_CHECK_GT(hi, lo, "CDF series range must be non-empty");
  std::vector<SeriesPoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(points - 1);
    out.push_back(SeriesPoint{x, fraction_at_most(x)});
  }
  return out;
}

std::vector<SeriesPoint> WeightedCdf::ccdf_series(double lo, double hi,
                                                  std::size_t points) const {
  auto out = cdf_series(lo, hi, points);
  for (auto& p : out) p.y = 1.0 - p.y;
  return out;
}

}  // namespace bgpcmp::stats
