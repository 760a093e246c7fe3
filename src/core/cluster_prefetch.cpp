#include "core/cluster_prefetch.hpp"

#include <algorithm>
#include <cstdint>

#include "tensor/vec_ops.hpp"

namespace ckv {

ClusterPrefetcher::ClusterPrefetcher(const ClusterPrefetchConfig& config)
    : config_(config) {
  expects(config.max_clusters >= 0,
          "ClusterPrefetcher: max_clusters must be non-negative");
  expects(config.prior_weight >= 0.0,
          "ClusterPrefetcher: prior_weight must be non-negative");
  expects(config.prior_decay >= 0.0 && config.prior_decay < 1.0,
          "ClusterPrefetcher: prior_decay must be in [0, 1)");
}

void ClusterPrefetcher::observe_selection(std::span<const Index> selected_clusters,
                                          Index cluster_count) {
  expects(cluster_count >= 0, "ClusterPrefetcher: negative cluster count");
  prior_.resize(static_cast<std::size_t>(cluster_count), 0.0);
  for (double& p : prior_) {
    p *= config_.prior_decay;
  }
  const double gain = 1.0 - config_.prior_decay;
  for (const Index c : selected_clusters) {
    expects(c >= 0 && c < cluster_count,
            "ClusterPrefetcher: selected cluster out of range");
    prior_[static_cast<std::size_t>(c)] += gain;
  }
}

std::vector<Index> ClusterPrefetcher::predict(
    std::span<const float> centroid_scores, std::span<const Index> exclude) const {
  if (!enabled() || centroid_scores.empty()) {
    return {};
  }
  // Min-max normalize the similarity scores so the prior's [0, 1] scale
  // composes with any selection metric (inner products are unbounded).
  float lo = 0.0f;
  float hi = 0.0f;
  min_max(centroid_scores, lo, hi);
  const double range = static_cast<double>(hi) - static_cast<double>(lo);

  // Ids outside [0, clusters) can never be predicted, so excluding them is
  // a no-op.
  const Index clusters = static_cast<Index>(centroid_scores.size());
  std::vector<std::uint8_t> excluded(centroid_scores.size(), 0);
  for (const Index c : exclude) {
    if (c >= 0 && c < clusters) {
      excluded[static_cast<std::size_t>(c)] = 1;
    }
  }
  std::vector<std::pair<double, Index>> ranked;
  ranked.reserve(centroid_scores.size());
  for (Index c = 0; c < clusters; ++c) {
    if (excluded[static_cast<std::size_t>(c)] != 0) {
      continue;
    }
    const double similarity =
        range > 0.0
            ? (static_cast<double>(centroid_scores[static_cast<std::size_t>(c)]) -
               static_cast<double>(lo)) /
                  range
            : 0.0;
    const double prior =
        c < static_cast<Index>(prior_.size()) ? prior_[static_cast<std::size_t>(c)]
                                              : 0.0;
    ranked.emplace_back(similarity + config_.prior_weight * prior, c);
  }
  const std::size_t take =
      std::min(ranked.size(), static_cast<std::size_t>(config_.max_clusters));
  // Ties break on the lower cluster id so prediction is a pure function
  // of (scores, prior): (-score, id) ascending.
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(take),
                    ranked.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) {
                        return a.first > b.first;
                      }
                      return a.second < b.second;
                    });
  std::vector<Index> predicted;
  predicted.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    predicted.push_back(ranked[i].second);
  }
  return predicted;
}

void ClusterPrefetcher::on_rebuild(Index cluster_count) {
  expects(cluster_count >= 0, "ClusterPrefetcher: negative cluster count");
  prior_.assign(static_cast<std::size_t>(cluster_count), 0.0);
}

}  // namespace ckv
