#include "core/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "core/kernels.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {

namespace {

/// Re-seeds empty clusters with the keys that are worst-served by their
/// current assignment (deterministic: lowest similarity first). With the
/// effective cluster count clamped to keys.rows() there are always at
/// least as many keys as empty clusters, so every empty cluster gets a
/// fresh seed; the final compaction pass still catches anything left
/// hollow by a degenerate last iteration.
void reseed_empty_clusters(const Matrix& keys, const KMeansConfig& config,
                           std::vector<Index>& labels, Matrix& centroids,
                           const std::vector<Index>& counts) {
  std::vector<Index> empty;
  for (Index c = 0; c < centroids.rows(); ++c) {
    if (counts[static_cast<std::size_t>(c)] == 0) {
      empty.push_back(c);
    }
  }
  if (empty.empty()) {
    return;
  }
  // Rank keys by how poorly they match their assigned centroid.
  std::vector<float> fit(static_cast<std::size_t>(keys.rows()));
  batched_pair_scores(keys, centroids, labels, config.metric, fit);
  std::vector<Index> order(static_cast<std::size_t>(keys.rows()));
  for (Index i = 0; i < keys.rows(); ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  std::sort(order.begin(), order.end(), [&fit](Index a, Index b) {
    const float fa = fit[static_cast<std::size_t>(a)];
    const float fb = fit[static_cast<std::size_t>(b)];
    if (fa != fb) {
      return fa < fb;
    }
    return a < b;
  });
  std::size_t next = 0;
  for (const Index c : empty) {
    if (next >= order.size()) {
      break;
    }
    const Index key_row = order[next++];
    copy_to(keys.row(key_row), centroids.row(c));
    labels[static_cast<std::size_t>(key_row)] = c;
  }
}

}  // namespace

namespace {

/// k-means++ seeding: each next centroid is a key sampled with probability
/// proportional to its distance from the nearest centroid chosen so far.
Matrix plus_plus_seeds(const Matrix& keys, Index c, DistanceMetric metric, Rng& rng) {
  Matrix centroids(c, keys.cols());
  const Index first = rng.uniform_int(0, keys.rows() - 1);
  copy_to(keys.row(first), centroids.row(0));

  // nearest[i] = similarity of key i to its closest chosen centroid. Every
  // metric is symmetric, so one batched pass scores the newest centroid
  // against all keys at once.
  std::vector<double> nearest(static_cast<std::size_t>(keys.rows()),
                              -std::numeric_limits<double>::infinity());
  std::vector<float> to_newest(static_cast<std::size_t>(keys.rows()));
  for (Index chosen = 1; chosen < c; ++chosen) {
    batched_scores(keys, centroids.row(chosen - 1), metric, to_newest);
    std::vector<double> weights(static_cast<std::size_t>(keys.rows()));
    double total = 0.0;
    for (Index i = 0; i < keys.rows(); ++i) {
      nearest[static_cast<std::size_t>(i)] =
          std::max(nearest[static_cast<std::size_t>(i)],
                   static_cast<double>(to_newest[static_cast<std::size_t>(i)]));
      // Convert similarity to a non-negative "distance" weight. For cosine
      // this is the paper's D = 1 - cos; for L2 the squared distance; for
      // inner product a shifted gap to the best match.
      const double w = metric == DistanceMetric::kL2
                           ? -nearest[static_cast<std::size_t>(i)]
                           : 1.0 - nearest[static_cast<std::size_t>(i)];
      weights[static_cast<std::size_t>(i)] = std::max(w, 0.0);
      total += weights[static_cast<std::size_t>(i)];
    }
    Index pick;
    if (total <= 0.0) {
      pick = rng.uniform_int(0, keys.rows() - 1);  // degenerate: all identical
    } else {
      pick = rng.weighted_choice(weights);
    }
    copy_to(keys.row(pick), centroids.row(chosen));
  }
  return centroids;
}

}  // namespace

namespace {

/// Shared Lloyd iteration: alternates assignment/update on result.centroids
/// until labels stop changing or the cap, then compacts hollow clusters.
void run_lloyd(const Matrix& keys, const KMeansConfig& config, KMeansResult& result) {
  result.labels.assign(static_cast<std::size_t>(keys.rows()), -1);
  std::vector<Index> counts;
  for (Index iter = 0; iter < config.max_iterations; ++iter) {
    auto labels = batched_argmax(keys, result.centroids, config.metric);
    result.iterations = iter + 1;
    if (labels == result.labels) {
      result.converged = true;
      break;
    }
    result.labels = std::move(labels);
    Matrix updated;
    centroid_update(keys, result.labels, result.centroids, kChannelPartitions, updated,
                    counts);
    result.centroids = std::move(updated);
    reseed_empty_clusters(keys, config, result.labels, result.centroids, counts);
  }
  if (result.labels.front() < 0) {
    // max_iterations == 0: no assignment ran yet; label once so callers
    // always get a full (and compactable) assignment.
    result.labels = batched_argmax(keys, result.centroids, config.metric);
  }
  compact_empty_clusters(result.centroids, result.labels);
}

}  // namespace

Index compact_empty_clusters(Matrix& centroids, std::vector<Index>& labels) {
  std::vector<Index> counts(static_cast<std::size_t>(centroids.rows()), 0);
  for (const Index label : labels) {
    expects(label >= 0 && label < centroids.rows(),
            "compact_empty_clusters: label out of range");
    ++counts[static_cast<std::size_t>(label)];
  }
  std::vector<Index> remap(counts.size(), -1);
  Index kept = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) {
      remap[c] = kept++;
    }
  }
  if (kept == centroids.rows()) {
    return kept;
  }
  Matrix compact(kept, centroids.cols());
  for (std::size_t c = 0; c < remap.size(); ++c) {
    if (remap[c] >= 0) {
      std::ranges::copy(centroids.row(static_cast<Index>(c)),
                        compact.row(remap[c]).begin());
    }
  }
  centroids = std::move(compact);
  for (Index& label : labels) {
    label = remap[static_cast<std::size_t>(label)];
  }
  return kept;
}

KMeansResult kmeans_cluster(const Matrix& keys, const KMeansConfig& config, Rng& rng) {
  expects(keys.rows() > 0, "kmeans_cluster: need at least one key");
  expects(config.num_clusters >= 1, "kmeans_cluster: num_clusters must be >= 1");
  const Index c = std::min<Index>(config.num_clusters, keys.rows());

  KMeansResult result;
  if (config.init == KMeansInit::kPlusPlus) {
    result.centroids = plus_plus_seeds(keys, c, config.metric, rng);
  } else {
    // Initial centroids: randomly sampled key vectors (paper §III-B).
    result.centroids = Matrix(c, keys.cols());
    const auto seeds = rng.sample_without_replacement(keys.rows(), c);
    for (Index i = 0; i < c; ++i) {
      copy_to(keys.row(seeds[static_cast<std::size_t>(i)]), result.centroids.row(i));
    }
  }
  run_lloyd(keys, config, result);
  return result;
}

KMeansResult kmeans_refine(const Matrix& keys, const Matrix& seeds,
                           const KMeansConfig& config) {
  expects(keys.rows() > 0, "kmeans_refine: need at least one key");
  expects(seeds.rows() > 0, "kmeans_refine: need at least one seed centroid");
  expects(seeds.cols() == keys.cols(), "kmeans_refine: seed width mismatch");
  // Clamp the effective k: more seeds than keys would leave clusters that
  // can never be filled (the reseed path would then run out of keys and
  // silently keep stale duplicate centroids).
  const Index c = std::min<Index>(seeds.rows(), keys.rows());
  KMeansResult result;
  result.centroids = seeds.row_slice(0, c);
  run_lloyd(keys, config, result);
  return result;
}

Index default_cluster_count(Index length, Index tokens_per_cluster) noexcept {
  if (length <= 0) {
    return 0;
  }
  if (tokens_per_cluster <= 0) {
    return 1;
  }
  return std::max<Index>(1, length / tokens_per_cluster);
}

}  // namespace ckv
