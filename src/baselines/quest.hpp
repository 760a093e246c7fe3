// Quest baseline (Tang et al., ICML'24): recall at the granularity of
// fixed-size pages of consecutive tokens. Page importance is estimated
// from per-channel min/max key metadata, giving an upper bound on any
// member token's attention score; the top pages fill the budget.
#pragma once

#include <vector>

#include "core/kv_selector.hpp"
#include "tensor/matrix.hpp"

namespace ckv {

struct QuestConfig {
  Index page_size = 16;  ///< tokens per page (paper's Quest setting)
};

class QuestSelector : public KVSelector {
 public:
  QuestSelector(Index head_dim, const QuestConfig& config);

  [[nodiscard]] std::string name() const override { return "Quest"; }

  void observe_prefill(const Matrix& keys, const Matrix& values) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  SelectionResult select(std::span<const float> query, Index budget) override;
  [[nodiscard]] Index context_size() const override { return tokens_; }

  [[nodiscard]] Index page_count() const noexcept { return page_max_.rows(); }

  /// Upper-bound score of one finalized page for a query (testing hook:
  /// the invariant is score >= q . k / sqrt(d) for every member token).
  [[nodiscard]] double page_score(std::span<const float> query, Index page) const;

 private:
  /// Folds one key into the open page and finalizes the page once full.
  void append(std::span<const float> key);

  QuestConfig config_;
  Index head_dim_ = 0;
  Index tokens_ = 0;             ///< tokens observed (the context size)
  std::vector<float> open_max_;  ///< open page: per-channel max key so far
  std::vector<float> open_min_;  ///< open page: per-channel min key so far
  Matrix page_max_;              ///< per finalized page: per-channel max key
  Matrix page_min_;              ///< per finalized page: per-channel min key
};

/// Factory adapter for the decode engine.
SelectorFactory make_quest_factory(const QuestConfig& config = {});

}  // namespace ckv
