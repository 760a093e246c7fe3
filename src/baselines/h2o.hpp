// H2O baseline (Zhang et al., NeurIPS'23): non-recallable eviction keeping
// "heavy hitters" — tokens with the largest cumulative attention — plus a
// recent window. Once evicted, a token can never be selected again
// (Fig. 1b family); this is the motivating contrast for recallable
// compression.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/kv_selector.hpp"

namespace ckv {

struct H2OConfig {
  Index budget = 512;          ///< alive-set size (heavy hitters + recents)
  double recent_fraction = 0.5;  ///< share of the budget kept for recency
};

class H2OSelector : public KVSelector {
 public:
  explicit H2OSelector(const H2OConfig& config);

  [[nodiscard]] std::string name() const override { return "H2O"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  void observe_attention(std::span<const Index> indices,
                         std::span<const float> probabilities) override;
  [[nodiscard]] bool is_recallable() const override { return false; }
  [[nodiscard]] Index context_size() const override {
    return static_cast<Index>(evicted_.size());
  }

  /// Positions still alive (not permanently evicted), ascending.
  [[nodiscard]] std::vector<Index> alive_positions() const;
  [[nodiscard]] bool is_evicted(Index position) const;

 private:
  void evict_to_budget();

  H2OConfig config_;
  std::unordered_map<Index, double> cumulative_score_;  ///< alive set
  /// One entry per observed token, so its length is the context size.
  std::vector<bool> evicted_;
};

/// Factory adapter; budget fixed at construction (eviction needs it before
/// select is called).
SelectorFactory make_h2o_factory(const H2OConfig& config);

}  // namespace ckv
