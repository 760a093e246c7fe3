// Cluster representations and the indexing metadata of Fig. 8: centroids,
// cluster sizes, prefix-sum offsets and token indices grouped (sorted) by
// cluster label. Clusters are immutable once added; decode-side clustering
// (§III-B) appends new clusters for each batch of generated tokens, and
// cross-chunk repair replaces the whole store with rebuild().
#pragma once

#include <span>
#include <vector>

#include "core/distance.hpp"
#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

class CentroidStore {
 public:
  explicit CentroidStore(Index head_dim);

  /// Registers a batch of clusters. `labels[i]` (in [0, centroids.rows()))
  /// is the local cluster of the token at absolute position
  /// `position_offset + i`; local cluster c becomes global cluster
  /// `cluster_count() + c` (before the call). Token lists preserve
  /// ascending position order within each cluster.
  void add_clusters(const Matrix& centroids, std::span<const Index> labels,
                    Index position_offset);

  /// Replaces the whole store content in one shot — equivalent to a fresh
  /// store followed by one add_clusters(centroids, labels, position_offset)
  /// call. The cluster-repair pass uses this to re-register the refined
  /// clusters without touching KV placement.
  void rebuild(const Matrix& centroids, std::span<const Index> labels,
               Index position_offset);

  [[nodiscard]] Index cluster_count() const noexcept;
  [[nodiscard]] Index token_count() const noexcept;
  [[nodiscard]] Index head_dim() const noexcept { return head_dim_; }

  /// Token positions of one cluster (ascending).
  [[nodiscard]] std::span<const Index> tokens_of(Index cluster) const;

  [[nodiscard]] Index size_of(Index cluster) const;
  [[nodiscard]] std::span<const Index> cluster_sizes() const noexcept {
    return cluster_sizes_;
  }

  [[nodiscard]] const Matrix& centroids() const noexcept { return centroids_; }

  /// Scores every centroid against the query. The paper selects with the
  /// inner product (it "better aligns with attention weight computation",
  /// §III-C); other metrics are accepted for ablations.
  [[nodiscard]] std::vector<float> scores(
      std::span<const float> query,
      DistanceMetric metric = DistanceMetric::kInnerProduct) const;

 private:
  Index head_dim_;
  Matrix centroids_;
  std::vector<Index> cluster_sizes_;
  std::vector<Index> cluster_offsets_;  ///< prefix sums; size = clusters + 1
  std::vector<Index> sorted_indices_;   ///< token positions grouped by cluster
};

}  // namespace ckv
