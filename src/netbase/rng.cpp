#include "bgpcmp/netbase/rng.h"

#include <cmath>
#include <numeric>

#include "bgpcmp/netbase/check.h"

namespace bgpcmp {

namespace {

// SplitMix64 finalizer: whitens correlated seeds before feeding mt19937_64.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the label, mixed with the parent seed, so fork("a") and
// fork("b") are decorrelated and stable across runs.
std::uint64_t derive_seed(std::uint64_t parent, std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ parent;
  for (const char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return splitmix(h);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix(seed)) {}

Rng Rng::fork(std::string_view label) const {
  return Rng{derive_seed(seed_, label)};
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>{mean, stddev}(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>{mu, sigma}(engine_);
}

double Rng::exponential(double mean) {
  BGPCMP_CHECK_GT(mean, 0.0, "exponential mean must be positive");
  return std::exponential_distribution<double>{1.0 / mean}(engine_);
}

double Rng::pareto(double x_m, double alpha) {
  BGPCMP_CHECK_GT(x_m, 0.0, "Pareto scale must be positive");
  BGPCMP_CHECK_GT(alpha, 0.0, "Pareto shape must be positive");
  // Inverse-CDF sampling; (1 - u) avoids pow(0, ...) at u == 0.
  const double u = uniform();
  return x_m / std::pow(1.0 - u, 1.0 / alpha);
}

std::size_t Rng::index(std::size_t n) {
  BGPCMP_CHECK_GT(n, 0, "cannot pick an index from an empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  BGPCMP_CHECK(!weights.empty(), "weighted pick from an empty weight list");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  BGPCMP_CHECK_GT(total, 0.0, "weights must have a positive sum");
  double target = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric slop lands on the last element
}

}  // namespace bgpcmp
