#include "tensor/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ckv {

Rng Rng::fork(std::string_view tag) const {
  return Rng(derive_seed(seed_, tag));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::uniform(double lo, double hi) {
  expects(lo <= hi, "Rng::uniform: lo must not exceed hi");
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

Index Rng::uniform_int(Index lo, Index hi) {
  expects(lo <= hi, "Rng::uniform_int: lo must not exceed hi");
  return std::uniform_int_distribution<Index>(lo, hi)(gen_);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Marsaglia polar method on 53-bit uniforms in [-1, 1).
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = static_cast<double>(gen_() >> 11) * 0x1p-52 - 1.0;
    v = static_cast<double>(gen_() >> 11) * 0x1p-52 - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return u * f;
}

double Rng::normal(double mean, double stddev) {
  expects(stddev >= 0.0, "Rng::normal: stddev must be non-negative");
  if (stddev == 0.0) {
    return mean;
  }
  return mean + stddev * normal();
}

void Rng::fill_normal(std::span<float> out, double mean, double stddev) {
  for (float& x : out) {
    x = static_cast<float>(normal(mean, stddev));
  }
}

std::vector<float> Rng::unit_vector(Index dim) {
  expects(dim > 0, "Rng::unit_vector: dim must be positive");
  std::vector<float> v(static_cast<std::size_t>(dim));
  double norm_sq = 0.0;
  do {
    norm_sq = 0.0;
    for (float& x : v) {
      const double s = normal();
      x = static_cast<float>(s);
      norm_sq += s * s;
    }
  } while (norm_sq == 0.0);
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : v) {
    x *= inv;
  }
  return v;
}

std::vector<Index> Rng::permutation(Index n) {
  expects(n >= 0, "Rng::permutation: n must be non-negative");
  std::vector<Index> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), Index{0});
  std::shuffle(p.begin(), p.end(), gen_);
  return p;
}

std::vector<Index> Rng::sample_without_replacement(Index n, Index k) {
  expects(k >= 0 && k <= n, "Rng::sample_without_replacement: need 0 <= k <= n");
  // Partial Fisher-Yates: O(n) memory but O(k) swaps; n here is at most the
  // context length, so the allocation is acceptable and exact.
  std::vector<Index> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), Index{0});
  for (Index i = 0; i < k; ++i) {
    const Index j = uniform_int(i, n - 1);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(k));
  return pool;
}

Index Rng::weighted_choice(std::span<const double> weights) {
  expects(!weights.empty(), "Rng::weighted_choice: weights must not be empty");
  double total = 0.0;
  for (const double w : weights) {
    expects(w >= 0.0, "Rng::weighted_choice: weights must be non-negative");
    total += w;
  }
  expects(total > 0.0, "Rng::weighted_choice: weights must have positive sum");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) {
      return static_cast<Index>(i);
    }
  }
  return static_cast<Index>(weights.size() - 1);
}

bool Rng::bernoulli(double p) {
  expects(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

}  // namespace ckv
