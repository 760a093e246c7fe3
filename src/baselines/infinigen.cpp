#include "baselines/infinigen.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernels.hpp"
#include "tensor/svd.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

InfiniGenSelector::InfiniGenSelector(Index head_dim, const InfiniGenConfig& config)
    : config_(config), head_dim_(head_dim), speculation_rng_(config.seed) {
  expects(config.partial_dim > 0 && config.partial_dim <= head_dim,
          "InfiniGenSelector: partial_dim must be in (0, head_dim]");
  expects(config.calibration_tokens > 0,
          "InfiniGenSelector: calibration_tokens must be positive");
  expects(config.speculation_noise >= 0.0,
          "InfiniGenSelector: speculation_noise must be non-negative");
}

std::vector<float> InfiniGenSelector::project(std::span<const float> vec) const {
  return matvec(basis_, vec);
}

void InfiniGenSelector::observe_prefill(const Matrix& keys, const Matrix& /*values*/) {
  expects(keys.cols() == head_dim_, "InfiniGenSelector::observe_prefill: key width");
  // Offline phase: fit the reduced basis on the leading calibration slice
  // only. This mirrors InfiniGen's offline SVD on calibration data — the
  // basis is frozen before the bulk of the context arrives.
  const Index sample_rows = std::min<Index>(config_.calibration_tokens, keys.rows());
  const Matrix sample = keys.row_slice(0, sample_rows);
  const auto svd = jacobi_svd(sample);
  const Index r = std::min<Index>(config_.partial_dim,
                                  static_cast<Index>(svd.singular_values.size()));
  basis_ = Matrix(r, head_dim_);
  for (Index k = 0; k < r; ++k) {
    for (Index c = 0; c < head_dim_; ++c) {
      basis_.at(k, c) = svd.v.at(c, k);
    }
  }
  projected_keys_ = Matrix(0, 0);
  for (Index t = 0; t < keys.rows(); ++t) {
    projected_keys_.append_row(project(keys.row(t)));
  }
}

void InfiniGenSelector::observe_decode(std::span<const float> key,
                                       std::span<const float> /*value*/) {
  expects(!basis_.empty(), "InfiniGenSelector: observe_prefill must come first");
  projected_keys_.append_row(project(key));
}

SelectionResult InfiniGenSelector::select(std::span<const float> query, Index budget) {
  expects(budget >= 0, "InfiniGenSelector::select: budget must be non-negative");
  SelectionResult result;
  if (budget == 0 || context_size() == 0) {
    return result;
  }
  auto q_partial = project(query);
  if (config_.speculation_noise > 0.0) {
    // Cross-layer speculation error: the query used for selection is the
    // previous layer's estimate, not the exact one.
    const double scale =
        config_.speculation_noise * norm2(q_partial) /
        std::sqrt(static_cast<double>(q_partial.size()));
    for (float& x : q_partial) {
      x += static_cast<float>(speculation_rng_.normal(0.0, scale));
    }
  }
  const float inv_sqrt_d =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(head_dim_)));
  std::vector<float> approx(static_cast<std::size_t>(projected_keys_.rows()));
  batched_scores(projected_keys_, q_partial, DistanceMetric::kInnerProduct, approx,
                 inv_sqrt_d);
  result.indices = top_k_indices(approx, budget);
  std::sort(result.indices.begin(), result.indices.end());
  // Per-token scoring over the whole context in the partial dimension —
  // the O(L * r) selection cost of §II-C.
  result.representations_scored = context_size();
  // InfiniGen speculates/fetches selected KV from host memory each step
  // (no cluster cache): every selected token is a fetch.
  result.tokens_fetched = static_cast<Index>(result.indices.size());
  return result;
}

SelectorFactory make_infinigen_factory(const InfiniGenConfig& config) {
  return [config](Index layer, Index head, Index head_dim) {
    InfiniGenConfig adjusted = config;
    adjusted.partial_dim = std::min<Index>(adjusted.partial_dim, head_dim);
    adjusted.seed = derive_seed(config.seed, "infinigen/l" + std::to_string(layer) +
                                                 "/h" + std::to_string(head));
    return std::make_unique<InfiniGenSelector>(head_dim, adjusted);
  };
}

}  // namespace ckv
