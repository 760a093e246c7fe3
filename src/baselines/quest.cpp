#include "baselines/quest.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"

namespace ckv {

namespace {

/// Lane form of the Quest bound: sum_c max(q_c * hi_c, q_c * lo_c). Same
/// fixed accumulation structure as dot_f32 (see docs/PERFORMANCE.md), so
/// the batched page pass is deterministic across thread counts.
float page_bound_f32(std::span<const float> q, std::span<const float> hi,
                     std::span<const float> lo) {
  const std::size_t n = q.size();
  float acc[kDotLanes] = {};
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (std::size_t lane = 0; lane < kDotLanes; ++lane) {
      acc[lane] += std::max(q[i + lane] * hi[i + lane], q[i + lane] * lo[i + lane]);
    }
  }
  for (std::size_t stride = kDotLanes / 2; stride > 0; stride /= 2) {
    for (std::size_t lane = 0; lane < stride; ++lane) {
      acc[lane] += acc[lane + stride];
    }
  }
  float total = acc[0];
  for (; i < n; ++i) {
    total += std::max(q[i] * hi[i], q[i] * lo[i]);
  }
  return total;
}

}  // namespace

QuestSelector::QuestSelector(Index head_dim, const QuestConfig& config)
    : config_(config), store_(head_dim) {
  expects(config.page_size > 0, "QuestSelector: page_size must be positive");
}

void QuestSelector::finalize_full_pages() {
  while ((page_max_.rows() + 1) * config_.page_size <= store_.size()) {
    const Index begin = page_max_.rows() * config_.page_size;
    std::vector<float> max_row(store_.key(begin).begin(), store_.key(begin).end());
    std::vector<float> min_row = max_row;
    for (Index t = begin + 1; t < begin + config_.page_size; ++t) {
      const auto key = store_.key(t);
      elementwise_max_in_place(max_row, key);
      elementwise_min_in_place(min_row, key);
    }
    page_max_.append_row(max_row);
    page_min_.append_row(min_row);
  }
}

void QuestSelector::observe_prefill(const Matrix& keys, const Matrix& values) {
  store_.append_block(keys, values);
  finalize_full_pages();
}

void QuestSelector::observe_decode(std::span<const float> key,
                                   std::span<const float> value) {
  store_.append(key, value);
  finalize_full_pages();
}

double QuestSelector::page_score(std::span<const float> query, Index page) const {
  expects(page >= 0 && page < page_max_.rows(), "QuestSelector: page out of range");
  const auto max_row = page_max_.row(page);
  const auto min_row = page_min_.row(page);
  double acc = 0.0;
  for (std::size_t c = 0; c < query.size(); ++c) {
    const double q = static_cast<double>(query[c]);
    acc += std::max(q * static_cast<double>(max_row[c]),
                    q * static_cast<double>(min_row[c]));
  }
  return acc / std::sqrt(static_cast<double>(store_.head_dim()));
}

SelectionResult QuestSelector::select(std::span<const float> query, Index budget) {
  expects(budget >= 0, "QuestSelector::select: budget must be non-negative");
  SelectionResult result;

  // Tokens past the last finalized page (the in-progress page) are always
  // attended — they are the local context Quest never drops.
  std::vector<Index> indices;
  const Index paged_tokens = page_max_.rows() * config_.page_size;
  for (Index t = paged_tokens; t < store_.size(); ++t) {
    indices.push_back(t);
  }

  const Index page_budget =
      std::max<Index>(0, budget - static_cast<Index>(indices.size()));
  const Index pages_wanted = page_budget / config_.page_size;

  if (pages_wanted > 0 && page_max_.rows() > 0) {
    const float inv_sqrt_d =
        static_cast<float>(1.0 / std::sqrt(static_cast<double>(store_.head_dim())));
    std::vector<float> scores(static_cast<std::size_t>(page_max_.rows()));
    parallel_for_range(0, page_max_.rows(), /*grain=*/0, [&](Index begin, Index end) {
      for (Index p = begin; p < end; ++p) {
        scores[static_cast<std::size_t>(p)] =
            page_bound_f32(query, page_max_.row(p), page_min_.row(p)) * inv_sqrt_d;
      }
    });
    const auto chosen = top_k_indices(scores, pages_wanted);
    for (const Index page : chosen) {
      const Index begin = page * config_.page_size;
      for (Index t = begin; t < begin + config_.page_size; ++t) {
        indices.push_back(t);
      }
    }
    result.representations_scored = page_max_.rows();
  }

  std::sort(indices.begin(), indices.end());
  result.indices = std::move(indices);
  return result;
}

SelectorFactory make_quest_factory(const QuestConfig& config) {
  return [config](Index /*layer*/, Index /*head*/, Index head_dim) {
    return std::make_unique<QuestSelector>(head_dim, config);
  };
}

}  // namespace ckv
