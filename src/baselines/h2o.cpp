#include "baselines/h2o.hpp"

#include <algorithm>

namespace ckv {

H2OSelector::H2OSelector(Index head_dim, const H2OConfig& config)
    : config_(config), store_(head_dim) {
  expects(config.budget > 0, "H2OSelector: budget must be positive");
  expects(config.recent_fraction >= 0.0 && config.recent_fraction <= 1.0,
          "H2OSelector: recent_fraction must be in [0, 1]");
}

void H2OSelector::observe_prefill(const Matrix& keys, const Matrix& values) {
  store_.append_block(keys, values);
  evicted_.assign(static_cast<std::size_t>(store_.size()), false);
  for (Index t = 0; t < store_.size(); ++t) {
    cumulative_score_.emplace(t, 0.0);
  }
  evict_to_budget();
}

void H2OSelector::observe_decode(std::span<const float> key,
                                 std::span<const float> value) {
  store_.append(key, value);
  evicted_.push_back(false);
  cumulative_score_.emplace(store_.size() - 1, 0.0);
  evict_to_budget();
}

void H2OSelector::evict_to_budget() {
  const Index alive = static_cast<Index>(cumulative_score_.size());
  if (alive <= config_.budget) {
    return;
  }
  const Index recent_keep = static_cast<Index>(
      config_.recent_fraction * static_cast<double>(config_.budget));
  const Index recent_boundary = store_.size() - recent_keep;

  // Candidates for eviction: alive tokens outside the recent window,
  // lowest cumulative attention first (ties: older token evicted first).
  // (score, pos) pairs are distinct, so a partial selection evicts exactly
  // the set a full sort would — this runs once per appended token, making
  // it the H2O scorer's hot loop.
  std::vector<std::pair<double, Index>> candidates;
  candidates.reserve(cumulative_score_.size());
  // (score, pos) pairs are distinct, so nth_element's victim set is
  // order-free regardless of candidate order.
  // ckv-lint: allow(unordered-iter) -- distinct keys, order-free
  for (const auto& [pos, score] : cumulative_score_) {
    if (pos < recent_boundary) {
      candidates.emplace_back(score, pos);
    }
  }
  const Index to_evict =
      std::min<Index>(alive - config_.budget, static_cast<Index>(candidates.size()));
  if (to_evict <= 0) {
    return;
  }
  std::nth_element(candidates.begin(), candidates.begin() + (to_evict - 1),
                   candidates.end());
  for (Index i = 0; i < to_evict; ++i) {
    const Index pos = candidates[static_cast<std::size_t>(i)].second;
    cumulative_score_.erase(pos);
    evicted_[static_cast<std::size_t>(pos)] = true;
  }
}

SelectionResult H2OSelector::select(std::span<const float> /*query*/, Index budget) {
  SelectionResult result;
  result.indices = alive_positions();
  if (static_cast<Index>(result.indices.size()) > budget) {
    // The alive set is bounded by the construction-time budget; a smaller
    // per-call budget keeps the most recent tokens and the heaviest
    // hitters in equal shares.
    result.indices.resize(static_cast<std::size_t>(budget));
  }
  return result;
}

void H2OSelector::observe_attention(std::span<const Index> indices,
                                    std::span<const float> probabilities) {
  expects(indices.size() == probabilities.size(),
          "H2OSelector::observe_attention: size mismatch");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto it = cumulative_score_.find(indices[i]);
    if (it != cumulative_score_.end()) {
      it->second += static_cast<double>(probabilities[i]);
    }
  }
}

std::vector<Index> H2OSelector::alive_positions() const {
  std::vector<Index> alive;
  alive.reserve(cumulative_score_.size());
  // ckv-lint: allow(unordered-iter) -- sorted immediately below
  for (const auto& [pos, score] : cumulative_score_) {
    alive.push_back(pos);
  }
  std::sort(alive.begin(), alive.end());
  return alive;
}

bool H2OSelector::is_evicted(Index position) const {
  expects(position >= 0 && position < store_.size(),
          "H2OSelector::is_evicted: position out of range");
  return evicted_[static_cast<std::size_t>(position)];
}

SelectorFactory make_h2o_factory(const H2OConfig& config) {
  return [config](Index /*layer*/, Index /*head*/, Index head_dim) {
    return std::make_unique<H2OSelector>(head_dim, config);
  };
}

}  // namespace ckv
