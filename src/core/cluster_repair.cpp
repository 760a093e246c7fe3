#include "core/cluster_repair.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

namespace {

/// Seed centroids: the surviving centroids by descending size (stable by
/// id), padded with evenly strided keys when the target count exceeds the
/// cluster count (oversized chunk-local clusters can split into more
/// refined clusters than there were).
Matrix repair_seeds(const CentroidStore& store, const Matrix& keys, Index want) {
  std::vector<Index> by_size(static_cast<std::size_t>(store.cluster_count()));
  std::iota(by_size.begin(), by_size.end(), Index{0});
  std::stable_sort(by_size.begin(), by_size.end(), [&store](Index a, Index b) {
    return store.size_of(a) > store.size_of(b);
  });
  const Index from_clusters = std::min<Index>(want, store.cluster_count());
  Matrix seeds(want, store.head_dim());
  for (Index i = 0; i < from_clusters; ++i) {
    copy_to(store.centroids().row(by_size[static_cast<std::size_t>(i)]), seeds.row(i));
  }
  for (Index i = from_clusters; i < want; ++i) {
    copy_to(keys.row((i * keys.rows()) / want), seeds.row(i));
  }
  return seeds;
}

}  // namespace

std::int64_t repair_clusters(CentroidStore& store, const Matrix& keys,
                             Index position_offset, const ClusterRepairConfig& config) {
  expects(config.refine_iterations >= 1,
          "repair_clusters: refine_iterations must be >= 1");
  expects(config.tokens_per_cluster >= 1,
          "repair_clusters: tokens_per_cluster must be >= 1");
  const Index tokens = store.token_count();
  const Matrix range = keys.row_slice(position_offset, position_offset + tokens);
  const Index want =
      std::min<Index>(tokens, std::max<Index>(1, tokens / config.tokens_per_cluster));
  KMeansConfig kconfig;
  kconfig.num_clusters = want;
  kconfig.metric = config.metric;
  kconfig.max_iterations = config.refine_iterations;
  const auto refined = kmeans_refine(range, repair_seeds(store, range, want), kconfig);
  store.rebuild(refined.centroids, refined.labels, position_offset);
  return refined.iterations * assignment_flops(tokens, want, store.head_dim());
}

}  // namespace ckv
