#include "bgpcmp/stats/quantile.h"

#include <algorithm>
#include <cmath>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::stats {

double quantile_sorted(std::span<const double> sorted, double q) {
  BGPCMP_CHECK(!sorted.empty(), "quantile of an empty sample");
  BGPCMP_CHECK_GE(q, 0.0, "quantile rank out of range");
  BGPCMP_CHECK_LE(q, 1.0, "quantile rank out of range");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double weighted_quantile(std::span<const Weighted> obs, double q) {
  BGPCMP_CHECK(!obs.empty(), "quantile of an empty sample");
  BGPCMP_CHECK_GE(q, 0.0, "quantile rank out of range");
  BGPCMP_CHECK_LE(q, 1.0, "quantile rank out of range");
  std::vector<Weighted> copy(obs.begin(), obs.end());
  std::sort(copy.begin(), copy.end(),
            [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
  double total = 0.0;
  for (const auto& w : copy) {
    BGPCMP_CHECK_GE(w.weight, 0.0, "observation weights must be non-negative");
    total += w.weight;
  }
  BGPCMP_CHECK_GT(total, 0.0, "weighted quantile needs positive total weight");
  const double target = q * total;
  double acc = 0.0;
  for (const auto& w : copy) {
    acc += w.weight;
    if (acc >= target) return w.value;
  }
  return copy.back().value;
}

}  // namespace bgpcmp::stats
