#include "bgpcmp/stats/summary.h"

#include <cmath>
#include <cstdio>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp::stats {

void Summary::add(double value) {
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    mean_ = min_ = max_ = value;
    m2_ = 0.0;
    return;
  }
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Summary::variance() const {
  BGPCMP_CHECK_GT(count_, 1, "sample variance needs at least two samples");
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::str() const {
  if (count_ == 0) return "n=0";
  char buf[128];
  const double sd = count_ > 1 ? stddev() : 0.0;
  std::snprintf(buf, sizeof(buf), "n=%zu mean=%.3f sd=%.3f min=%.3f max=%.3f",
                count_, mean_, sd, min_, max_);
  return buf;
}

}  // namespace bgpcmp::stats
