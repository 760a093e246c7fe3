// Kernel-equivalence suite for the batched SIMD scoring family: batched
// results must match the scalar double-accumulating references within
// 1e-4 for all three metrics, handle empty/degenerate shapes, and be
// bit-identical across worker counts (the accumulation-order contract of
// docs/PERFORMANCE.md).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/centroid_store.hpp"
#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "core/selector_index.hpp"
#include "tensor/rng.hpp"
#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

constexpr float kTol = 1e-4f;

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

const auto kAllMetrics = {DistanceMetric::kCosine, DistanceMetric::kL2,
                          DistanceMetric::kInnerProduct};

TEST(BatchedScores, MatchesScalarReferenceAllMetrics) {
  // 37 columns: exercises the lane remainder tail, not just multiples of 8.
  const Matrix rows = random_matrix(53, 37, 1);
  Rng rng(2);
  const auto query = rng.unit_vector(37);
  for (const auto metric : kAllMetrics) {
    std::vector<float> batched(static_cast<std::size_t>(rows.rows()));
    batched_scores(rows, query, metric, batched);
    for (Index r = 0; r < rows.rows(); ++r) {
      const auto reference = static_cast<float>(similarity(metric, query, rows.row(r)));
      EXPECT_NEAR(batched[static_cast<std::size_t>(r)], reference, kTol)
          << to_string(metric) << " row " << r;
    }
  }
}

TEST(BatchedScores, RowRangeAndScale) {
  const Matrix rows = random_matrix(20, 16, 3);
  Rng rng(4);
  const auto query = rng.unit_vector(16);
  std::vector<float> ranged(5);
  batched_scores(rows, 7, 12, query, DistanceMetric::kInnerProduct, ranged, 2.0f);
  for (Index r = 7; r < 12; ++r) {
    EXPECT_NEAR(ranged[static_cast<std::size_t>(r - 7)],
                2.0f * static_cast<float>(dot(query, rows.row(r))), kTol);
  }
}

TEST(BatchedScores, EmptyRangeAndZeroVectors) {
  const Matrix rows = random_matrix(4, 8, 5);
  Rng rng(6);
  const auto query = rng.unit_vector(8);
  std::vector<float> empty_out;
  batched_scores(rows, 2, 2, query, DistanceMetric::kCosine, empty_out);  // no-op

  // Cosine against a zero row and a zero query scores 0, like similarity().
  Matrix with_zero(2, 8);
  copy_to(rows.row(0), with_zero.row(1));
  std::vector<float> scores(2);
  batched_scores(with_zero, query, DistanceMetric::kCosine, scores);
  EXPECT_EQ(scores[0], 0.0f);
  const std::vector<float> zero_query(8, 0.0f);
  batched_scores(with_zero, zero_query, DistanceMetric::kCosine, scores);
  EXPECT_EQ(scores[1], 0.0f);
}

TEST(BatchedScores, RejectsShapeMismatch) {
  const Matrix rows = random_matrix(4, 8, 7);
  const std::vector<float> query(8, 1.0f);
  std::vector<float> out(3);  // wrong size
  EXPECT_THROW(batched_scores(rows, query, DistanceMetric::kL2, out),
               std::invalid_argument);
  const std::vector<float> narrow(5, 1.0f);
  std::vector<float> out4(4);
  EXPECT_THROW(batched_scores(rows, narrow, DistanceMetric::kL2, out4),
               std::invalid_argument);
}

TEST(BatchedDotAt, MatchesScalarGather) {
  const Matrix rows = random_matrix(64, 24, 8);
  Rng rng(9);
  const auto query = rng.unit_vector(24);
  const auto pick = rng.sample_without_replacement(64, 17);
  std::vector<float> batched(17);
  batched_dot_at(rows, pick, query, batched, 0.5f);
  for (std::size_t i = 0; i < pick.size(); ++i) {
    EXPECT_NEAR(batched[i], 0.5f * static_cast<float>(dot(query, rows.row(pick[i]))),
                kTol);
  }
  std::vector<float> none;
  batched_dot_at(rows, std::vector<Index>{}, query, none);  // empty gather: no-op
  EXPECT_THROW(batched_dot_at(rows, std::vector<Index>{64}, query, batched),
               std::invalid_argument);
}

TEST(BatchedPairScores, MatchesScalarReferenceAllMetrics) {
  const Matrix a = random_matrix(31, 19, 10);
  const Matrix b = random_matrix(7, 19, 11);
  Rng rng(12);
  std::vector<Index> pairs(31);
  for (auto& p : pairs) {
    p = rng.uniform_int(0, 6);
  }
  for (const auto metric : kAllMetrics) {
    std::vector<float> batched(31);
    batched_pair_scores(a, b, pairs, metric, batched);
    for (Index i = 0; i < a.rows(); ++i) {
      const auto reference = static_cast<float>(
          similarity(metric, a.row(i), b.row(pairs[static_cast<std::size_t>(i)])));
      EXPECT_NEAR(batched[static_cast<std::size_t>(i)], reference, kTol)
          << to_string(metric) << " row " << i;
    }
  }
}

/// Scalar argmax reference: the pre-batched double-accumulating loop.
std::vector<Index> reference_argmax(const Matrix& keys, const Matrix& centroids,
                                    DistanceMetric metric) {
  std::vector<Index> labels(static_cast<std::size_t>(keys.rows()), 0);
  for (Index i = 0; i < keys.rows(); ++i) {
    double best = -1e300;
    for (Index c = 0; c < centroids.rows(); ++c) {
      const double score = similarity(metric, keys.row(i), centroids.row(c));
      if (score > best) {
        best = score;
        labels[static_cast<std::size_t>(i)] = c;
      }
    }
  }
  return labels;
}

TEST(BatchedArgmax, MatchesScalarReferenceAllMetrics) {
  const Matrix keys = random_matrix(200, 40, 13);
  const Matrix centroids = random_matrix(23, 40, 14);
  // Unit keys on the centroid axes: each key is nearest its own axis.
  Matrix axes(2, 2);
  axes.at(0, 0) = 1.0f;
  axes.at(1, 1) = 1.0f;
  for (const auto metric : kAllMetrics) {
    EXPECT_EQ(batched_argmax(keys, centroids, metric),
              reference_argmax(keys, centroids, metric))
        << to_string(metric);
    EXPECT_EQ(batched_argmax(axes, axes, metric), (std::vector<Index>{0, 1}))
        << to_string(metric);
  }
}

TEST(BatchedArgmax, MoreCentroidsThanKeysAndTies) {
  // More centroids than keys is legal for the kernel (kmeans clamps k, but
  // assignment must not rely on that).
  const Matrix keys = random_matrix(3, 8, 15);
  const Matrix centroids = random_matrix(11, 8, 16);
  const auto labels = batched_argmax(keys, centroids, DistanceMetric::kCosine);
  EXPECT_EQ(labels, reference_argmax(keys, centroids, DistanceMetric::kCosine));

  // Duplicate centroids tie exactly; the lower id must win.
  Matrix dup(3, 8);
  for (Index c = 0; c < 3; ++c) {
    copy_to(keys.row(0), dup.row(c));
  }
  const auto tied = batched_argmax(keys, dup, DistanceMetric::kInnerProduct);
  for (const Index label : tied) {
    EXPECT_EQ(label, 0);
  }
}

TEST(BatchedArgmax, SingleCentroidLabelsEverythingZero) {
  const Matrix keys = random_matrix(9, 8, 17);
  const Matrix centroid = random_matrix(1, 8, 18);
  for (const auto metric : kAllMetrics) {
    for (const Index label : batched_argmax(keys, centroid, metric)) {
      EXPECT_EQ(label, 0);
    }
  }
}

TEST(KMeansClamp, MoreClustersThanKeysStaysNonEmpty) {
  const Matrix keys = random_matrix(5, 8, 19);
  KMeansConfig config;
  config.num_clusters = 12;  // k > keys: effective k clamps to 5
  Rng rng(20);
  const auto result = kmeans_cluster(keys, config, rng);
  EXPECT_LE(result.centroids.rows(), 5);
  std::vector<Index> counts(static_cast<std::size_t>(result.centroids.rows()), 0);
  for (const Index label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, result.centroids.rows());
    ++counts[static_cast<std::size_t>(label)];
  }
  for (const Index count : counts) {
    EXPECT_GT(count, 0);
  }
}

TEST(ThreadDeterminism, LabelsIdenticalAcrossWorkerCounts) {
  WorkerGuard guard;
  const Matrix keys = random_matrix(513, 64, 21);  // odd count: ragged chunks
  const Matrix centroids = random_matrix(37, 64, 22);
  set_parallel_workers(1);
  const auto serial = batched_argmax(keys, centroids, DistanceMetric::kCosine);
  for (const int workers : {2, 8}) {
    set_parallel_workers(workers);
    EXPECT_EQ(batched_argmax(keys, centroids, DistanceMetric::kCosine), serial)
        << workers << " workers";
  }
}

TEST(ThreadDeterminism, SelectionBitIdenticalAcrossWorkerCounts) {
  WorkerGuard guard;
  CentroidStore store(64);
  const Matrix centroids = random_matrix(90, 64, 23);
  std::vector<Index> labels(static_cast<std::size_t>(90 * 11));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<Index>(i) % 90;
  }
  store.add_clusters(centroids, labels, 0);
  Rng rng(24);
  const auto query = rng.unit_vector(64);

  set_parallel_workers(1);
  const auto serial_scores = store.scores(query);
  const auto serial_sel = select_clusters(serial_scores, store.cluster_sizes(), 256);
  for (const int workers : {2, 8}) {
    set_parallel_workers(workers);
    const auto scores = store.scores(query);
    EXPECT_EQ(scores, serial_scores) << workers << " workers";  // bit-identical
    const auto sel = select_clusters(scores, store.cluster_sizes(), 256);
    EXPECT_EQ(sel.clusters, serial_sel.clusters) << workers << " workers";
  }
}

TEST(ThreadDeterminism, FullKMeansBitIdenticalAcrossWorkerCounts) {
  WorkerGuard guard;
  const Matrix keys = random_matrix(400, 64, 25);
  KMeansConfig config;
  config.num_clusters = 5;
  config.max_iterations = 8;

  set_parallel_workers(1);
  Rng rng_serial(26);
  const auto serial = kmeans_cluster(keys, config, rng_serial);
  for (const int workers : {2, 8}) {
    set_parallel_workers(workers);
    Rng rng(26);
    const auto result = kmeans_cluster(keys, config, rng);
    EXPECT_EQ(result.labels, serial.labels) << workers << " workers";
    ASSERT_EQ(result.centroids.rows(), serial.centroids.rows());
    const auto flat = result.centroids.flat();
    const auto serial_flat = serial.centroids.flat();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(flat[i], serial_flat[i]) << workers << " workers, element " << i;
    }
  }
}

TEST(CentroidUpdate, MeansIdenticalForEveryPartitionCountUnderThreads) {
  WorkerGuard guard;
  const Matrix keys = random_matrix(257, 48, 27);
  Rng rng(28);
  std::vector<Index> labels(257);
  for (auto& l : labels) {
    l = rng.uniform_int(0, 9);
  }
  const Matrix previous = random_matrix(10, 48, 29);

  set_parallel_workers(1);
  Matrix serial_out;
  std::vector<Index> serial_counts;
  centroid_update(keys, labels, previous, 1, serial_out, serial_counts);

  for (const Index partitions : {Index{1}, Index{4}, Index{16}}) {
    // Per partition count: serial baseline, then multi-worker runs must be
    // bit-identical to it (threads split the channel ranges, never the
    // token walk within a channel).
    set_parallel_workers(1);
    Matrix baseline;
    std::vector<Index> baseline_counts;
    centroid_update(keys, labels, previous, partitions, baseline, baseline_counts);
    EXPECT_EQ(baseline_counts, serial_counts);
    // Across P the strided token walk reorders float additions, so means
    // agree within tolerance, not bit-for-bit.
    for (std::size_t i = 0; i < baseline.flat().size(); ++i) {
      ASSERT_NEAR(baseline.flat()[i], serial_out.flat()[i], kTol) << "P=" << partitions;
    }
    for (const int workers : {2, 8}) {
      set_parallel_workers(workers);
      Matrix out;
      std::vector<Index> counts;
      centroid_update(keys, labels, previous, partitions, out, counts);
      EXPECT_EQ(counts, baseline_counts);
      for (std::size_t i = 0; i < out.flat().size(); ++i) {
        ASSERT_EQ(out.flat()[i], baseline.flat()[i])
            << "P=" << partitions << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace ckv
