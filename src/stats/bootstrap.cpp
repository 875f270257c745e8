#include "bgpcmp/stats/bootstrap.h"

// Counting-rank resampling. A resample's median depends only on how many
// times each input value was drawn, not on the order of the draws. So each
// input is sorted once per call, every position is mapped to its rank in
// that order, and a resample only counts draws per rank; its lo-th and
// (lo+1)-th order statistics are then read off the cumulative counts. These
// are exactly the values nth_element and the tail minimum used to select
// from a copied resample, combined by the same expression, so the bounds are
// bit-identical to selection (values that compare equal carry the same bits
// once NaN is rejected; only the sign of a zero could differ). The draws go
// through the same distribution in the same order, so the Rng ends in the
// same state.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>  // lint:allow(D4): stateless distributions drawn over Rng::engine()
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {

namespace {

/// One bootstrap input, prepared once per call: its values in ascending order
/// and, for each input position, the rank of that value (ties broken by
/// position, so an already sorted input maps to the identity).
struct RankedSample {
  std::vector<double> sorted;
  std::vector<std::uint32_t> rank;
};

RankedSample rank_sample(std::span<const double> values) {
  BGPCMP_CHECK_LE(values.size(), std::numeric_limits<std::uint32_t>::max(),
                  "bootstrap sample too large for 32-bit ranks");
  for (const double v : values) {
    BGPCMP_CHECK(std::isfinite(v), "bootstrap sample holds a non-finite value: ", v);
  }
  const auto n = static_cast<std::uint32_t>(values.size());
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&values](std::uint32_t i, std::uint32_t j) {
    return values[i] < values[j] || (values[i] == values[j] && i < j);
  });
  RankedSample out;
  out.sorted.resize(n);
  out.rank.resize(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    out.sorted[r] = values[order[r]];
    out.rank[order[r]] = r;
  }
  return out;
}

/// Median of one resample of `sample`: n draws counted per rank, then the
/// middle order statistics read off the running count.
double counted_median(const RankedSample& sample, Rng& rng,
                      std::vector<std::uint32_t>& counts) {
  const std::size_t n = sample.sorted.size();
  counts.assign(n, 0);
  // One distribution hoisted out of the loop draws the same sequence as
  // Rng::index per element (the distribution is stateless) without paying
  // its per-call construction.
  std::uniform_int_distribution<std::int64_t> pick{0, static_cast<std::int64_t>(n) - 1};
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[sample.rank[static_cast<std::size_t>(pick(rng.engine()))]];
  }
  // The k-th order statistic (0-based) sits at the first rank whose running
  // count exceeds k.
  const std::size_t lo = (n - 1) / 2;
  std::size_t r = 0;
  std::size_t seen = counts[0];
  while (seen <= lo) seen += counts[++r];
  const double lower = sample.sorted[r];
  if (n % 2 != 0) return lower;
  while (seen <= lo + 1) seen += counts[++r];
  const double upper = sample.sorted[r];
  return lower + 0.5 * (upper - lower);
}

ConfidenceInterval interval_from(std::vector<double>& stats, double point,
                                 double confidence) {
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return ConfidenceInterval{quantile_sorted(stats, alpha), point,
                            quantile_sorted(stats, 1.0 - alpha)};
}

}  // namespace

ConfidenceInterval bootstrap_median_diff_ci(std::span<const double> a,
                                            std::span<const double> b, Rng& rng,
                                            const BootstrapOptions& opts) {
  BGPCMP_CHECK(!a.empty() && !b.empty(), "bootstrap difference needs both samples");
  BGPCMP_CHECK_GT(opts.resamples, 0, "bootstrap needs at least one resample");
  const RankedSample sa = rank_sample(a);
  const RankedSample sb = rank_sample(b);
  std::vector<std::uint32_t> counts;
  std::vector<double> diffs;
  diffs.reserve(static_cast<std::size_t>(opts.resamples));
  for (int i = 0; i < opts.resamples; ++i) {
    const double ma = counted_median(sa, rng, counts);
    const double mb = counted_median(sb, rng, counts);
    diffs.push_back(ma - mb);
  }
  const double point =
      quantile_sorted(sa.sorted, 0.5) - quantile_sorted(sb.sorted, 0.5);
  return interval_from(diffs, point, opts.confidence);
}

}  // namespace bgpcmp::stats
