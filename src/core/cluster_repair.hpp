// Cross-chunk cluster repair: recovers one-shot selection recall after
// chunked prefill. Incremental prefill clusters each prompt chunk locally
// (docs/SCHEDULING.md, "clustering-locality trade-off"), so semantically
// similar tokens split across chunk boundaries land in separate, polluted
// clusters. A repair pass re-clusters every clustered token jointly with a
// few k-means refinement iterations seeded from the surviving centroids,
// moving the chunk-local clustering towards the paper's one k-means pass
// over the prompt (§IV-A). The pass only rewrites centroid/label
// metadata: KV placement, attention sinks and pending tokens are
// untouched, so every budget and residency invariant holds mid-repair and
// nothing is re-pinned to the fast tier.
#pragma once

#include <cstdint>

#include "core/centroid_store.hpp"
#include "core/distance.hpp"
#include "tensor/matrix.hpp"
#include "util/common.hpp"

namespace ckv {

struct ClusterRepairConfig {
  /// k-means refinement iterations (the warm-started kmeans_refine cap).
  /// Must be >= 1; callers gate repair off themselves.
  Index refine_iterations = 4;
  /// Target granularity: the pass leaves max(1, tokens /
  /// tokens_per_cluster) clusters (§III-B rule).
  Index tokens_per_cluster = 80;
  DistanceMetric metric = DistanceMetric::kCosine;
};

/// Runs one repair pass over `store` and returns its k-means assignment
/// work in multiply-accumulate ops. `keys` is the full per-head key matrix
/// (rows indexed by absolute token position); the store's clusters must
/// cover the contiguous position range
/// [position_offset, position_offset + store.token_count()).
std::int64_t repair_clusters(CentroidStore& store, const Matrix& keys,
                             Index position_offset, const ClusterRepairConfig& config);

}  // namespace ckv
