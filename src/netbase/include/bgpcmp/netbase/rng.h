// Deterministic random-number generation for the simulation.
//
// Every stochastic component takes an Rng (or a seed) explicitly; there is no
// global generator. Substreams are derived with fork(), so adding a new
// consumer of randomness never perturbs the draws of existing ones — a
// property the reproduction benches rely on (same seed => same figure).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace bgpcmp {

/// Deterministic RNG with convenience samplers. Move-only: a copy would
/// replay the parent's draws and silently fork draw order, so a second stream
/// comes from fork(label) and a by-value Rng parameter takes an rvalue.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  /// Derive an independent child stream keyed by a label, without advancing
  /// this stream. Same (seed, label) always yields the same child.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// The seed this stream was constructed from.
  [[nodiscard]] std::uint64_t base_seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Exponential with given mean (not rate).
  double exponential(double mean);
  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed volumes).
  double pareto(double x_m, double alpha);

  /// Pick a uniformly random index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Pick an index with probability proportional to weights[i]. Weights must
  /// be non-negative with a positive sum.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace bgpcmp
