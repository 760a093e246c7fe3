// Deterministic random number generation. Every experiment object owns an
// Rng derived from (experiment seed, component tag) so runs are exactly
// reproducible and components draw decorrelated streams.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace ckv {

/// Seeded wrapper around std::mt19937_64 with the sampling helpers the
/// reproduction needs (Gaussian fills, unit directions, permutations).
/// `normal()` is a Marsaglia polar sampler that keeps the second variate of
/// each pair. `uniform`, `uniform_int` and `permutation` draw through
/// libstdc++'s distributions and `std::shuffle`, and they shape the
/// perfbench and serving traces (see docs/PERFORMANCE.md).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed), seed_(seed) {}

  /// Child generator with an independent, reproducible stream derived from
  /// this generator's seed and the tag (not from consumed state or a held
  /// normal spare).
  [[nodiscard]] Rng fork(std::string_view tag) const;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  Index uniform_int(Index lo, Index hi);

  /// Standard normal sample: the held spare if there is one, else the first
  /// of a fresh polar pair (whose second becomes the spare).
  double normal();

  /// mean + stddev * normal(); draws nothing when stddev == 0.
  double normal(double mean, double stddev);

  /// Fills the span with i.i.d. normal(mean, stddev) samples.
  void fill_normal(std::span<float> out, double mean, double stddev);

  /// Returns a uniformly random unit vector of the given dimension.
  std::vector<float> unit_vector(Index dim);

  /// Returns a random permutation of [0, n).
  std::vector<Index> permutation(Index n);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<Index> sample_without_replacement(Index n, Index k);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  Index weighted_choice(std::span<const double> weights);

  /// Bernoulli draw with probability p.
  bool bernoulli(double p);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::mt19937_64 gen_;
  std::uint64_t seed_ = 0;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ckv
