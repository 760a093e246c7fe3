#include <gtest/gtest.h>

#include <set>

#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "tensor/rng.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

/// Keys drawn from `clusters` well-separated directions.
Matrix clustered_keys(Index n, Index dim, Index clusters, std::uint64_t seed,
                      std::vector<Index>* truth = nullptr) {
  Rng rng(seed);
  Matrix dirs(clusters, dim);
  for (Index c = 0; c < clusters; ++c) {
    copy_to(rng.unit_vector(dim), dirs.row(c));
  }
  Matrix keys(n, dim);
  for (Index i = 0; i < n; ++i) {
    const Index c = rng.uniform_int(0, clusters - 1);
    if (truth != nullptr) {
      truth->push_back(c);
    }
    auto row = keys.row(i);
    copy_to(dirs.row(c), row);
    for (float& x : row) {
      x += static_cast<float>(rng.normal(0.0, 0.05));
    }
    // Magnitude variation: cosine clustering must ignore it.
    const float scale = static_cast<float>(std::exp(rng.normal(0.0, 0.4)));
    scale_in_place(row, scale);
  }
  return keys;
}

TEST(KMeans, LabelsValidAndClustersNonEmpty) {
  const auto keys = clustered_keys(200, 16, 5, 11);
  KMeansConfig config;
  config.num_clusters = 5;
  Rng rng(1);
  const auto result = kmeans_cluster(keys, config, rng);
  ASSERT_EQ(result.labels.size(), 200u);
  std::vector<Index> counts(5, 0);
  for (const Index label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 5);
    ++counts[static_cast<std::size_t>(label)];
  }
  for (const Index c : counts) {
    EXPECT_GT(c, 0);
  }
}

TEST(KMeans, ConvergesOnSeparatedData) {
  const auto keys = clustered_keys(300, 32, 4, 12);
  KMeansConfig config;
  config.num_clusters = 4;
  config.max_iterations = 50;
  Rng rng(2);
  const auto result = kmeans_cluster(keys, config, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50);
}

TEST(KMeans, RecoversPlantedClusters) {
  std::vector<Index> truth;
  const auto keys = clustered_keys(400, 24, 4, 13, &truth);
  KMeansConfig config;
  config.num_clusters = 4;
  config.max_iterations = 50;
  Rng rng(3);
  const auto result = kmeans_cluster(keys, config, rng);
  // Same planted cluster => same learned label (allow a few noise errors).
  Index agree = 0;
  Index total = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    for (std::size_t j = i + 1; j < truth.size(); j += 17) {
      const bool same_truth = truth[i] == truth[j];
      const bool same_label = result.labels[i] == result.labels[j];
      if (same_truth == same_label) {
        ++agree;
      }
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST(KMeans, CosineIgnoresScale) {
  // Two groups identical in direction, wildly different magnitude: cosine
  // k-means with 2 clusters must split by direction, not by norm.
  Rng rng(14);
  const auto dir_a = rng.unit_vector(8);
  const auto dir_b = rng.unit_vector(8);
  Matrix keys(40, 8);
  for (Index i = 0; i < 40; ++i) {
    auto row = keys.row(i);
    copy_to(i % 2 == 0 ? dir_a : dir_b, row);
    for (float& x : row) {
      x += static_cast<float>(rng.normal(0.0, 0.02));
    }
    scale_in_place(row, i < 20 ? 0.1f : 10.0f);  // magnitude split at i=20
  }
  KMeansConfig config;
  config.num_clusters = 2;
  Rng krng(4);
  const auto result = kmeans_cluster(keys, config, krng);
  // All even i (direction a) share one label regardless of magnitude.
  const Index label_even = result.labels[0];
  for (Index i = 0; i < 40; i += 2) {
    EXPECT_EQ(result.labels[static_cast<std::size_t>(i)], label_even);
  }
  EXPECT_NE(result.labels[1], label_even);
}

TEST(KMeans, ClusterCountClampedToKeys) {
  Rng rng(15);
  Matrix keys(3, 4);
  rng.fill_normal(keys.flat(), 0.0, 1.0);
  KMeansConfig config;
  config.num_clusters = 10;
  Rng krng(5);
  const auto result = kmeans_cluster(keys, config, krng);
  EXPECT_EQ(result.centroids.rows(), 3);
}

TEST(KMeans, DuplicateKeysWithExcessClustersNeverReturnHollowClusters) {
  // Regression: identical keys collapse the sampled seeds, assignment
  // piles everything on one cluster, and reseeding cannot fill the rest —
  // the result used to carry duplicate/stale centroids with no members.
  // The compaction contract guarantees every returned cluster is lived-in.
  Matrix keys(3, 4);
  keys.fill(0.25f);
  KMeansConfig config;
  config.num_clusters = 10;
  Rng rng(16);
  const auto result = kmeans_cluster(keys, config, rng);
  ASSERT_EQ(result.labels.size(), 3u);
  std::vector<Index> counts(static_cast<std::size_t>(result.centroids.rows()), 0);
  for (const Index label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, result.centroids.rows());
    ++counts[static_cast<std::size_t>(label)];
  }
  for (const Index c : counts) {
    EXPECT_GT(c, 0);
  }
}

TEST(KMeansRefine, ClampsEffectiveKToKeyCount) {
  // Regression for the repair path: a tiny input can be handed more seed
  // centroids than it has keys; the effective k must clamp so the
  // reseed path never runs out of keys and leaves stale duplicates behind.
  Rng rng(17);
  Matrix keys(3, 8);
  rng.fill_normal(keys.flat(), 0.0, 1.0);
  Matrix seeds(7, 8);
  rng.fill_normal(seeds.flat(), 0.0, 1.0);
  KMeansConfig config;
  config.max_iterations = 20;
  const auto result = kmeans_refine(keys, seeds, config);
  ASSERT_LE(result.centroids.rows(), 3);
  std::vector<Index> counts(static_cast<std::size_t>(result.centroids.rows()), 0);
  for (const Index label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, result.centroids.rows());
    ++counts[static_cast<std::size_t>(label)];
  }
  for (const Index c : counts) {
    EXPECT_GT(c, 0);
  }
}

TEST(KMeansRefine, WarmStartRecoversPlantedClusters) {
  std::vector<Index> truth;
  const auto keys = clustered_keys(300, 16, 4, 18, &truth);
  // Seed from noisy per-cluster means (a stand-in for surviving centroids).
  Matrix seeds(4, 16);
  std::vector<Index> counts(4, 0);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto row = keys.row(static_cast<Index>(i));
    auto seed = seeds.row(truth[i]);
    for (Index d = 0; d < 16; ++d) {
      seed[static_cast<std::size_t>(d)] += row[static_cast<std::size_t>(d)];
    }
    ++counts[static_cast<std::size_t>(truth[i])];
  }
  KMeansConfig config;
  config.max_iterations = 30;
  const auto result = kmeans_refine(keys, seeds, config);
  EXPECT_TRUE(result.converged);
  // Warm-started refinement lands on the planted partition.
  Index agree = 0;
  Index total = 0;
  for (std::size_t i = 0; i < truth.size(); i += 3) {
    for (std::size_t j = i + 1; j < truth.size(); j += 13) {
      agree += (truth[i] == truth[j]) == (result.labels[i] == result.labels[j]) ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST(KMeansRefine, RejectsBadInputs) {
  Matrix keys(2, 2);
  Matrix empty;
  KMeansConfig config;
  EXPECT_THROW(kmeans_refine(keys, empty, config), std::invalid_argument);
  Matrix wrong_width(1, 3);
  EXPECT_THROW(kmeans_refine(keys, wrong_width, config), std::invalid_argument);
}

TEST(KMeans, DeterministicGivenSeed) {
  const auto keys = clustered_keys(100, 16, 3, 16);
  KMeansConfig config;
  config.num_clusters = 3;
  Rng r1(6);
  Rng r2(6);
  const auto a = kmeans_cluster(keys, config, r1);
  const auto b = kmeans_cluster(keys, config, r2);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(KMeans, RejectsBadInputs) {
  Matrix empty;
  KMeansConfig config;
  config.num_clusters = 2;
  Rng rng(7);
  EXPECT_THROW(kmeans_cluster(empty, config, rng), std::invalid_argument);
  Matrix keys(2, 2);
  config.num_clusters = 0;
  EXPECT_THROW(kmeans_cluster(keys, config, rng), std::invalid_argument);
}

TEST(DefaultClusterCount, PaperRule) {
  EXPECT_EQ(default_cluster_count(32000), 400);  // L/80 (§III-B)
  EXPECT_EQ(default_cluster_count(80), 1);
  EXPECT_EQ(default_cluster_count(79), 1);   // floor of 1
  EXPECT_EQ(default_cluster_count(0), 0);
  EXPECT_EQ(default_cluster_count(1600, 160), 10);
}

class CentroidUpdatePartitions : public ::testing::TestWithParam<Index> {};

TEST_P(CentroidUpdatePartitions, MeansIndependentOfPartitioning) {
  // The channel-partition parameter P (Fig. 7) is a performance knob; the
  // computed means must be identical for every P.
  const Index partitions = GetParam();
  const auto keys = clustered_keys(128, 32, 4, 17);
  const auto labels = std::vector<Index>([&] {
    std::vector<Index> l(128);
    for (Index i = 0; i < 128; ++i) {
      l[static_cast<std::size_t>(i)] = i % 4;
    }
    return l;
  }());
  Matrix previous(4, 32);
  Matrix out_p;
  std::vector<Index> counts_p;
  centroid_update(keys, labels, previous, partitions, out_p, counts_p);

  Matrix out_1;
  std::vector<Index> counts_1;
  centroid_update(keys, labels, previous, 1, out_1, counts_1);

  EXPECT_EQ(counts_p, counts_1);
  EXPECT_LT(frobenius_distance(out_p, out_1), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Partitions, CentroidUpdatePartitions,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(CentroidUpdate, EmptyClusterKeepsPrevious) {
  Matrix keys(4, 2);
  keys.fill(1.0f);
  const std::vector<Index> labels{0, 0, 0, 0};
  Matrix previous(2, 2);
  previous.at(1, 0) = 7.0f;
  Matrix out;
  std::vector<Index> counts;
  centroid_update(keys, labels, previous, 1, out, counts);
  EXPECT_EQ(counts[1], 0);
  EXPECT_FLOAT_EQ(out.at(1, 0), 7.0f);  // untouched cluster keeps old row
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);  // mean of ones
}

TEST(AssignmentFlops, Formula) {
  EXPECT_EQ(assignment_flops(1000, 10, 64), 640000);
}

TEST(Distance, SimilarityOrderings) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{10.0f, 0.0f};
  const std::vector<float> c{0.0f, 1.0f};
  // Cosine: direction only.
  EXPECT_NEAR(similarity(DistanceMetric::kCosine, a, b), 1.0, 1e-6);
  EXPECT_NEAR(similarity(DistanceMetric::kCosine, a, c), 0.0, 1e-6);
  // L2: magnitude matters.
  EXPECT_LT(similarity(DistanceMetric::kL2, a, b),
            similarity(DistanceMetric::kL2, a, c));
  // Inner product: magnitude amplifies.
  EXPECT_GT(similarity(DistanceMetric::kInnerProduct, a, b),
            similarity(DistanceMetric::kInnerProduct, a, a));
}

TEST(Distance, ParseAndPrint) {
  EXPECT_EQ(parse_distance_metric("cosine"), DistanceMetric::kCosine);
  EXPECT_EQ(parse_distance_metric("l2"), DistanceMetric::kL2);
  EXPECT_EQ(parse_distance_metric("ip"), DistanceMetric::kInnerProduct);
  EXPECT_THROW(parse_distance_metric("nope"), std::invalid_argument);
  EXPECT_EQ(to_string(DistanceMetric::kCosine), "cosine");
  EXPECT_EQ(to_string(DistanceMetric::kL2), "L2");
  EXPECT_EQ(to_string(DistanceMetric::kInnerProduct), "inner-product");
}

}  // namespace
}  // namespace ckv

namespace ckv {
namespace {

TEST(KMeansPlusPlus, SeedsRecoverWellSeparatedClusters) {
  std::vector<Index> truth;
  const auto keys = clustered_keys(300, 16, 6, 99, &truth);
  KMeansConfig config;
  config.num_clusters = 6;
  config.init = KMeansInit::kPlusPlus;
  config.max_iterations = 50;
  Rng rng(7);
  const auto result = kmeans_cluster(keys, config, rng);
  EXPECT_TRUE(result.converged);
  // Pairwise agreement with the planted labels.
  Index agree = 0;
  Index total = 0;
  for (std::size_t i = 0; i < truth.size(); i += 3) {
    for (std::size_t j = i + 1; j < truth.size(); j += 13) {
      const bool same_truth = truth[i] == truth[j];
      const bool same_label = result.labels[i] == result.labels[j];
      if (same_truth == same_label) {
        ++agree;
      }
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST(KMeansPlusPlus, DeterministicGivenSeed) {
  const auto keys = clustered_keys(100, 8, 3, 100);
  KMeansConfig config;
  config.num_clusters = 3;
  config.init = KMeansInit::kPlusPlus;
  Rng r1(8);
  Rng r2(8);
  EXPECT_EQ(kmeans_cluster(keys, config, r1).labels,
            kmeans_cluster(keys, config, r2).labels);
}

TEST(KMeansPlusPlus, HandlesIdenticalKeys) {
  Matrix keys(10, 4);
  keys.fill(1.0f);
  KMeansConfig config;
  config.num_clusters = 3;
  config.init = KMeansInit::kPlusPlus;
  Rng rng(9);
  const auto result = kmeans_cluster(keys, config, rng);
  EXPECT_EQ(result.labels.size(), 10u);
}

TEST(KMeansPlusPlus, ConvergesAtLeastAsFastOnSeparatedData) {
  // Seeding quality property: on well-separated clusters, k-means++ needs
  // no more iterations than random seeding (averaged over seeds).
  Index random_iters = 0;
  Index pp_iters = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto keys = clustered_keys(240, 16, 5, 200 + seed);
    KMeansConfig config;
    config.num_clusters = 5;
    config.max_iterations = 60;
    Rng r1(seed);
    config.init = KMeansInit::kRandomSample;
    random_iters += kmeans_cluster(keys, config, r1).iterations;
    Rng r2(seed);
    config.init = KMeansInit::kPlusPlus;
    pp_iters += kmeans_cluster(keys, config, r2).iterations;
  }
  EXPECT_LE(pp_iters, random_iters + 6);
}

}  // namespace
}  // namespace ckv
