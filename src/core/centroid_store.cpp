#include "core/centroid_store.hpp"

#include "core/kernels.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

CentroidStore::CentroidStore(Index head_dim) : head_dim_(head_dim) {
  expects(head_dim > 0, "CentroidStore: head_dim must be positive");
  cluster_offsets_.push_back(0);
}

void CentroidStore::add_clusters(const Matrix& centroids,
                                 std::span<const Index> labels,
                                 Index position_offset) {
  expects(centroids.cols() == head_dim_, "CentroidStore::add_clusters: dim mismatch");
  expects(position_offset >= 0, "CentroidStore::add_clusters: negative offset");
  const Index local_clusters = centroids.rows();
  expects(local_clusters > 0, "CentroidStore::add_clusters: no clusters given");

  // Counting sort of the incoming tokens by local label keeps each
  // cluster's token list in ascending position order (stable).
  std::vector<Index> local_sizes(static_cast<std::size_t>(local_clusters), 0);
  for (const Index label : labels) {
    expects(label >= 0 && label < local_clusters,
            "CentroidStore::add_clusters: label out of range");
    ++local_sizes[static_cast<std::size_t>(label)];
  }
  std::vector<Index> local_offsets(static_cast<std::size_t>(local_clusters) + 1, 0);
  for (Index c = 0; c < local_clusters; ++c) {
    local_offsets[static_cast<std::size_t>(c) + 1] =
        local_offsets[static_cast<std::size_t>(c)] +
        local_sizes[static_cast<std::size_t>(c)];
  }
  const std::size_t base = sorted_indices_.size();
  sorted_indices_.resize(base + labels.size());
  std::vector<Index> cursor(local_offsets.begin(), local_offsets.end() - 1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Index label = labels[i];
    const std::size_t slot = base + static_cast<std::size_t>(
                                        cursor[static_cast<std::size_t>(label)]++);
    sorted_indices_[slot] = position_offset + static_cast<Index>(i);
  }

  for (Index c = 0; c < local_clusters; ++c) {
    centroids_.append_row(centroids.row(c));
    cluster_sizes_.push_back(local_sizes[static_cast<std::size_t>(c)]);
    cluster_offsets_.push_back(cluster_offsets_.back() +
                               local_sizes[static_cast<std::size_t>(c)]);
  }
}

void CentroidStore::rebuild(const Matrix& centroids, std::span<const Index> labels,
                            Index position_offset) {
  centroids_ = Matrix();
  cluster_sizes_.clear();
  cluster_offsets_.assign(1, 0);
  sorted_indices_.clear();
  add_clusters(centroids, labels, position_offset);
}

Index CentroidStore::cluster_count() const noexcept {
  return static_cast<Index>(cluster_sizes_.size());
}

Index CentroidStore::token_count() const noexcept {
  return static_cast<Index>(sorted_indices_.size());
}

std::span<const Index> CentroidStore::tokens_of(Index cluster) const {
  expects(cluster >= 0 && cluster < cluster_count(),
          "CentroidStore::tokens_of: cluster out of range");
  const auto begin = static_cast<std::size_t>(
      cluster_offsets_[static_cast<std::size_t>(cluster)]);
  const auto end = static_cast<std::size_t>(
      cluster_offsets_[static_cast<std::size_t>(cluster) + 1]);
  return std::span<const Index>(sorted_indices_).subspan(begin, end - begin);
}

Index CentroidStore::size_of(Index cluster) const {
  expects(cluster >= 0 && cluster < cluster_count(),
          "CentroidStore::size_of: cluster out of range");
  return cluster_sizes_[static_cast<std::size_t>(cluster)];
}

std::vector<float> CentroidStore::scores(std::span<const float> query,
                                         DistanceMetric metric) const {
  expects(static_cast<Index>(query.size()) == head_dim_,
          "CentroidStore::scores: query width mismatch");
  std::vector<float> out(static_cast<std::size_t>(cluster_count()));
  batched_scores(centroids_, query, metric, out);
  return out;
}

}  // namespace ckv
