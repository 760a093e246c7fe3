// K-means clustering over key vectors in the semantic space (§III-B).
// Default distance is cosine; initial centroids are randomly sampled keys;
// assignment/update alternate until labels stop changing.
#pragma once

#include <vector>

#include "core/distance.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "util/common.hpp"

namespace ckv {

/// Centroid initialization strategy. The paper samples random keys
/// (§III-B); k-means++ is provided as an extension and ablated in
/// bench_ablations (better seeding, higher seeding cost O(C L d)).
enum class KMeansInit {
  kRandomSample,  ///< paper default: uniformly sampled key vectors
  kPlusPlus,      ///< D^2-weighted seeding (k-means++)
};

/// P of the centroid-update kernel (§IV-B) every k-means iteration runs
/// with (bench_kernels sweeps it through centroid_update's argument).
inline constexpr Index kChannelPartitions = 16;

struct KMeansConfig {
  Index num_clusters = 0;                            ///< C; must be >= 1
  DistanceMetric metric = DistanceMetric::kCosine;   ///< paper default
  Index max_iterations = 20;                         ///< safety cap
  KMeansInit init = KMeansInit::kRandomSample;
};

struct KMeansResult {
  Matrix centroids;           ///< C x d cluster representations
  std::vector<Index> labels;  ///< per-key cluster label in [0, C)
  Index iterations = 0;       ///< iterations until convergence (or cap)
  bool converged = false;     ///< labels stopped changing before the cap
};

/// Clusters the rows of `keys`. num_clusters is clamped to the number of
/// keys. Empty clusters are re-seeded with the worst-assigned key during
/// the iteration, and any cluster still empty on return (degenerate
/// inputs: duplicate keys collapsing seeds) is compacted away, so every
/// returned cluster is non-empty — the result may hold fewer than
/// num_clusters clusters, never hollow ones.
KMeansResult kmeans_cluster(const Matrix& keys, const KMeansConfig& config, Rng& rng);

/// Warm-start refinement: runs assignment/update from the given seed
/// centroids for at most config.max_iterations (config.num_clusters is
/// ignored — the seed matrix defines k, clamped to keys.rows() so tiny
/// inputs can never end up with more clusters than keys). Deterministic
/// (no sampling); same empty-cluster guarantees as kmeans_cluster. This is
/// the cluster-repair entry point: the clustered tokens re-cluster seeded
/// from their surviving centroids instead of from scratch.
KMeansResult kmeans_refine(const Matrix& keys, const Matrix& seeds,
                           const KMeansConfig& config);

/// Removes empty clusters in place: centroids loses the hollow rows,
/// labels are remapped onto the surviving ids (relative order preserved).
/// Returns the surviving cluster count. Labels must be a full assignment
/// (every key labeled in [0, centroids.rows())).
Index compact_empty_clusters(Matrix& centroids, std::vector<Index>& labels);

/// The paper's cluster-count rule C0 = L / tokens_per_cluster (default 80),
/// with a floor of 1. `length` counts the keys actually clustered (prompt
/// minus attention sinks).
Index default_cluster_count(Index length, Index tokens_per_cluster = 80) noexcept;

}  // namespace ckv
