// InfiniGen baseline (Lee et al., OSDI'24): per-token recall using
// approximate attention scores computed in a reduced "partial weight"
// dimension obtained from an offline SVD. Here the offline phase builds a
// projection basis from a calibration slice of the key stream (the paper
// derives partial query/key weights from an offline SVD of the projection
// weights; both reduce scoring to r
// dimensions fitted on offline data, and both degrade as the live key
// distribution drifts away from the calibration distribution).
#pragma once

#include <vector>

#include "core/kv_selector.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace ckv {

struct InfiniGenConfig {
  Index partial_dim = 16;          ///< r: reduced scoring dimension
  Index calibration_tokens = 512;  ///< offline sample size for the basis
  /// Relative noise on the partial query: InfiniGen speculates the next
  /// layer's query from the previous layer's input, so its approximate
  /// scores carry cross-layer speculation error on top of the rank
  /// reduction. Modeled as Gaussian perturbation of the projected query.
  double speculation_noise = 0.5;
  std::uint64_t seed = 0x1f1;      ///< stream for the speculation noise
};

class InfiniGenSelector : public KVSelector {
 public:
  InfiniGenSelector(Index head_dim, const InfiniGenConfig& config);

  [[nodiscard]] std::string name() const override { return "InfiniGen"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  [[nodiscard]] Index context_size() const override { return projected_keys_.rows(); }

  [[nodiscard]] const Matrix& basis() const noexcept { return basis_; }
  [[nodiscard]] Index partial_dim() const noexcept { return config_.partial_dim; }

 private:
  [[nodiscard]] std::vector<float> project(std::span<const float> vec) const;

  InfiniGenConfig config_;
  Index head_dim_;
  Matrix basis_;           ///< r x d projection (top right-singular vectors)
  Matrix projected_keys_;  ///< N x r partial keys, one row per token seen
  Rng speculation_rng_;    ///< per-step speculation-error stream
};

/// Factory adapter for the decode engine.
SelectorFactory make_infinigen_factory(const InfiniGenConfig& config = {});

}  // namespace ckv
