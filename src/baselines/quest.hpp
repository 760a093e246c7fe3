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
  [[nodiscard]] Index context_size() const override { return keys_.rows(); }

  [[nodiscard]] Index page_count() const noexcept { return page_max_.rows(); }

  /// Upper-bound score of one finalized page for a query (testing hook:
  /// the invariant is score >= q . k / sqrt(d) for every member token).
  [[nodiscard]] double page_score(std::span<const float> query, Index page) const;

 private:
  void finalize_full_pages();

  QuestConfig config_;
  Matrix keys_;      ///< one row per token; finalize_full_pages reads them
  Matrix page_max_;  ///< per finalized page: per-channel max key
  Matrix page_min_;  ///< per finalized page: per-channel min key
};

/// Factory adapter for the decode engine.
SelectorFactory make_quest_factory(const QuestConfig& config = {});

}  // namespace ckv
