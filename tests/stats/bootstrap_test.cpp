#include "bgpcmp/stats/bootstrap.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>  // lint:allow(D4): the reference draws like the kernel
#include <string>
#include <vector>

#include "bgpcmp/netbase/check.h"
#include "bgpcmp/stats/quantile.h"

namespace bgpcmp::stats {
namespace {

// The selection-based resampler the counting-rank kernel replaced, kept as
// the differential reference: copy n draws, nth_element to the lower middle,
// and take the tail minimum as the upper middle for even n.
namespace reference {

double median_inplace(std::vector<double>& v) {
  if (v.size() == 1) return v[0];
  const std::size_t lo = (v.size() - 1) / 2;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 != 0) return *mid;
  const double upper = *std::min_element(mid + 1, v.end());
  return *mid + 0.5 * (upper - *mid);
}

double resample_median(std::span<const double> values, Rng& rng) {
  std::vector<double> scratch(values.size());
  std::uniform_int_distribution<std::int64_t> pick{
      0, static_cast<std::int64_t>(values.size()) - 1};
  for (double& slot : scratch) {
    slot = values[static_cast<std::size_t>(pick(rng.engine()))];
  }
  return median_inplace(scratch);
}

ConfidenceInterval interval_from(std::vector<double>& stats, double point,
                                 double confidence) {
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return ConfidenceInterval{quantile_sorted(stats, alpha), point,
                            quantile_sorted(stats, 1.0 - alpha)};
}

ConfidenceInterval median_diff_ci(std::span<const double> a, std::span<const double> b,
                                  Rng& rng, const BootstrapOptions& opts) {
  std::vector<double> diffs;
  for (int i = 0; i < opts.resamples; ++i) {
    const double ma = resample_median(a, rng);
    const double mb = resample_median(b, rng);
    diffs.push_back(ma - mb);
  }
  return interval_from(diffs, median(a) - median(b), opts.confidence);
}

}  // namespace reference

/// The percentile interval around median(values) alone: the difference
/// against a one-value zero sample, whose every resample draws 0.
ConfidenceInterval median_ci(std::span<const double> values, Rng& rng,
                             const BootstrapOptions& opts = {}) {
  const double zero[] = {0.0};
  return bootstrap_median_diff_ci(values, zero, rng, opts);
}

bool same_bits(double x, double y) { return std::memcmp(&x, &y, sizeof(double)) == 0; }

void expect_bit_identical(const ConfidenceInterval& got, const ConfidenceInterval& want,
                          const std::string& label) {
  EXPECT_TRUE(same_bits(got.lower, want.lower)) << label << " lower";
  EXPECT_TRUE(same_bits(got.point, want.point)) << label << " point";
  EXPECT_TRUE(same_bits(got.upper, want.upper)) << label << " upper";
}

enum class Values { Spread, ThreeValued, AllEqual };
enum class Order { Sorted, Reversed, Shuffled };

std::vector<double> generate(std::size_t n, Values values, Order order, Rng& gen) {
  constexpr double kTies[] = {1.5, 2.0, 7.25};
  std::vector<double> v(n);
  for (double& x : v) {
    switch (values) {
      case Values::Spread: x = gen.normal(40.0, 12.0); break;
      case Values::ThreeValued: x = kTies[gen.index(3)]; break;
      case Values::AllEqual: x = 3.0; break;
    }
  }
  switch (order) {
    case Order::Sorted: std::sort(v.begin(), v.end()); break;
    case Order::Reversed: std::sort(v.begin(), v.end(), std::greater<>{}); break;
    case Order::Shuffled: gen.shuffle(v); break;
  }
  return v;
}

// The counting-rank kernel against the selection reference on generated
// inputs: every size from 1 to 64, spread, tie-heavy and constant values, in
// sorted, reversed and shuffled order, with a and b of unequal sizes. Bounds
// and point must match bit for bit, and both must leave the engine in the
// same state (same number and order of draws).
TEST(BootstrapDifferential, CountingRanksMatchSelection) {
  Rng gen{2024};
  for (const int resamples : {1, 60, 200}) {
    const BootstrapOptions opts{resamples, 0.95};
    for (std::size_t n = 1; n <= 64; ++n) {
      for (const Values values :
           {Values::Spread, Values::ThreeValued, Values::AllEqual}) {
        for (const Order order : {Order::Sorted, Order::Reversed, Order::Shuffled}) {
          const auto a = generate(n, values, order, gen);
          const auto b = generate((n * 7) % 64 + 1, values, order, gen);
          const std::string label =
              "n=" + std::to_string(n) + " values=" +
              std::to_string(static_cast<int>(values)) + " order=" +
              std::to_string(static_cast<int>(order)) +
              " resamples=" + std::to_string(resamples);
          const std::uint64_t seed = n * 1000 + static_cast<std::uint64_t>(resamples);

          Rng got_rng{seed};
          Rng want_rng{seed};
          expect_bit_identical(bootstrap_median_diff_ci(a, b, got_rng, opts),
                               reference::median_diff_ci(a, b, want_rng, opts),
                               label + " diff");
          EXPECT_TRUE(got_rng.engine() == want_rng.engine()) << label << " diff";
        }
      }
    }
  }
}

TEST(Bootstrap, RejectsNonFiniteSamples) {
  ScopedCheckThrows guard;
  Rng rng{15};
  const std::vector<double> nan_in{1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  const std::vector<double> inf_in{1.0, 2.0, std::numeric_limits<double>::infinity()};
  const std::vector<double> fine{1.0, 2.0, 3.0};
  EXPECT_THROW((void)bootstrap_median_diff_ci(nan_in, fine, rng), CheckError);
  EXPECT_THROW((void)bootstrap_median_diff_ci(fine, nan_in, rng), CheckError);
  EXPECT_THROW((void)bootstrap_median_diff_ci(inf_in, fine, rng), CheckError);
  EXPECT_THROW((void)bootstrap_median_diff_ci(fine, inf_in, rng), CheckError);
}

// A sample one past the 32-bit rank range must be refused before any value is
// read. The span covers a reserved, inaccessible mapping, so a read would
// fault instead of passing silently.
TEST(Bootstrap, RejectsSampleBeyondRankRange) {
  const std::size_t n = std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  const std::size_t bytes = n * sizeof(double);
  void* mem = mmap(nullptr, bytes, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) GTEST_SKIP() << "cannot reserve " << bytes << " bytes";
  const std::span<const double> huge{static_cast<const double*>(mem), n};
  const std::vector<double> fine{1.0, 2.0, 3.0};
  {
    ScopedCheckThrows guard;
    Rng rng{16};
    EXPECT_THROW((void)bootstrap_median_diff_ci(huge, fine, rng), CheckError);
    EXPECT_THROW((void)bootstrap_median_diff_ci(fine, huge, rng), CheckError);
  }
  munmap(mem, bytes);
}

TEST(Bootstrap, CiContainsSampleMedian) {
  Rng rng{1};
  std::vector<double> v;
  Rng gen{2};
  for (int i = 0; i < 40; ++i) v.push_back(gen.normal(20, 4));
  const auto ci = median_ci(v, rng);
  EXPECT_DOUBLE_EQ(ci.point, median(v));
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_LE(ci.lower, ci.upper);
}

TEST(Bootstrap, DegenerateSampleHasZeroWidth) {
  Rng rng{3};
  const std::vector<double> v(20, 7.0);
  const auto ci = median_ci(v, rng);
  EXPECT_DOUBLE_EQ(ci.lower, 7.0);
  EXPECT_DOUBLE_EQ(ci.upper, 7.0);
  EXPECT_DOUBLE_EQ(ci.width(), 0.0);
}

TEST(Bootstrap, WidthShrinksWithSampleSize) {
  Rng gen{4};
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 10; ++i) small.push_back(gen.normal(0, 5));
  for (int i = 0; i < 1000; ++i) large.push_back(gen.normal(0, 5));
  Rng rng_a{5};
  Rng rng_b{5};
  const auto ci_small = median_ci(small, rng_a);
  const auto ci_large = median_ci(large, rng_b);
  EXPECT_LT(ci_large.width(), ci_small.width());
}

TEST(Bootstrap, DeterministicGivenRng) {
  Rng gen{6};
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(gen.uniform(0, 10));
  Rng a{7};
  Rng b{7};
  const auto ci_a = median_ci(v, a);
  const auto ci_b = median_ci(v, b);
  EXPECT_DOUBLE_EQ(ci_a.lower, ci_b.lower);
  EXPECT_DOUBLE_EQ(ci_a.upper, ci_b.upper);
}

TEST(Bootstrap, HigherConfidenceWidensInterval) {
  Rng gen{8};
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(gen.normal(0, 3));
  Rng a{9};
  Rng b{9};
  BootstrapOptions narrow{200, 0.80};
  BootstrapOptions wide{200, 0.99};
  EXPECT_LE(median_ci(v, a, narrow).width(),
            median_ci(v, b, wide).width());
}

TEST(BootstrapDiff, PointIsMedianDifference) {
  const std::vector<double> a{1, 2, 3, 4, 100};
  const std::vector<double> b{0, 1, 2, 3, 4};
  Rng rng{10};
  const auto ci = bootstrap_median_diff_ci(a, b, rng);
  EXPECT_DOUBLE_EQ(ci.point, median(a) - median(b));
}

TEST(BootstrapDiff, SeparatedSamplesExcludeZero) {
  Rng gen{11};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(gen.normal(100, 1));
    b.push_back(gen.normal(10, 1));
  }
  Rng rng{12};
  const auto ci = bootstrap_median_diff_ci(a, b, rng);
  EXPECT_GT(ci.lower, 0.0);  // a is clearly larger
  EXPECT_FALSE(ci.contains(0.0));
}

TEST(BootstrapDiff, IdenticalSamplesStraddleZero) {
  Rng gen{13};
  std::vector<double> a;
  for (int i = 0; i < 60; ++i) a.push_back(gen.normal(50, 5));
  Rng rng{14};
  const auto ci = bootstrap_median_diff_ci(a, a, rng);
  EXPECT_TRUE(ci.contains(0.0));
}

TEST(ConfidenceInterval, ContainsAndWidth) {
  const ConfidenceInterval ci{1.0, 2.0, 3.0};
  EXPECT_TRUE(ci.contains(1.0));
  EXPECT_TRUE(ci.contains(3.0));
  EXPECT_FALSE(ci.contains(0.99));
  EXPECT_DOUBLE_EQ(ci.width(), 2.0);
}

}  // namespace
}  // namespace bgpcmp::stats
