#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/centroid_store.hpp"
#include "core/selector_index.hpp"
#include "tensor/rng.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

Matrix unit_rows(Index rows, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, dim);
  for (Index r = 0; r < rows; ++r) {
    copy_to(rng.unit_vector(dim), m.row(r));
  }
  return m;
}

TEST(CentroidStore, Fig8Example) {
  // The worked example of Fig. 8: k0,k5 -> cluster 2; k1 -> cluster 0;
  // k2,k3,k4 -> cluster 1.
  CentroidStore store(4);
  const auto centroids = unit_rows(3, 4, 1);
  const std::vector<Index> labels{2, 0, 1, 1, 1, 2};
  store.add_clusters(centroids, labels, 0);

  EXPECT_EQ(store.cluster_count(), 3);
  EXPECT_EQ(store.token_count(), 6);
  EXPECT_EQ(store.size_of(0), 1);
  EXPECT_EQ(store.size_of(1), 3);
  EXPECT_EQ(store.size_of(2), 2);

  const auto c0 = store.tokens_of(0);
  const auto c1 = store.tokens_of(1);
  const auto c2 = store.tokens_of(2);
  EXPECT_EQ(std::vector<Index>(c0.begin(), c0.end()), (std::vector<Index>{1}));
  EXPECT_EQ(std::vector<Index>(c1.begin(), c1.end()), (std::vector<Index>{2, 3, 4}));
  EXPECT_EQ(std::vector<Index>(c2.begin(), c2.end()), (std::vector<Index>{0, 5}));
}

TEST(CentroidStore, PositionOffsetApplied) {
  CentroidStore store(4);
  const auto centroids = unit_rows(2, 4, 2);
  const std::vector<Index> labels{0, 1, 0};
  store.add_clusters(centroids, labels, 100);
  const auto c0 = store.tokens_of(0);
  EXPECT_EQ(std::vector<Index>(c0.begin(), c0.end()), (std::vector<Index>{100, 102}));
}

TEST(CentroidStore, IncrementalAddKeepsOldClusters) {
  CentroidStore store(4);
  store.add_clusters(unit_rows(2, 4, 3), std::vector<Index>{0, 1, 0}, 0);
  // Decode-side batch (§III-B): new clusters appended, ids continue.
  store.add_clusters(unit_rows(2, 4, 4), std::vector<Index>{1, 0}, 3);
  EXPECT_EQ(store.cluster_count(), 4);
  EXPECT_EQ(store.token_count(), 5);
  const auto old_c0 = store.tokens_of(0);
  EXPECT_EQ(std::vector<Index>(old_c0.begin(), old_c0.end()),
            (std::vector<Index>{0, 2}));
  const auto new_c2 = store.tokens_of(2);
  EXPECT_EQ(std::vector<Index>(new_c2.begin(), new_c2.end()),
            (std::vector<Index>{4}));
  const auto new_c3 = store.tokens_of(3);
  EXPECT_EQ(std::vector<Index>(new_c3.begin(), new_c3.end()),
            (std::vector<Index>{3}));
}

TEST(CentroidStore, SizesMatchPrefixSums) {
  CentroidStore store(8);
  Rng rng(5);
  Index offset = 0;
  for (int batch = 0; batch < 4; ++batch) {
    const Index n = 20 + batch * 7;
    const Index c = 3;
    std::vector<Index> labels(static_cast<std::size_t>(n));
    for (auto& l : labels) {
      l = rng.uniform_int(0, c - 1);
    }
    store.add_clusters(unit_rows(c, 8, 100 + batch), labels, offset);
    offset += n;
  }
  Index total = 0;
  for (Index c = 0; c < store.cluster_count(); ++c) {
    total += store.size_of(c);
    EXPECT_EQ(store.size_of(c), static_cast<Index>(store.tokens_of(c).size()));
  }
  EXPECT_EQ(total, store.token_count());
  // Every position appears exactly once across clusters.
  std::set<Index> seen;
  for (Index c = 0; c < store.cluster_count(); ++c) {
    for (const Index t : store.tokens_of(c)) {
      EXPECT_TRUE(seen.insert(t).second);
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), store.token_count());
}

TEST(CentroidStore, RebuildReplacesEverything) {
  CentroidStore store(4);
  store.add_clusters(unit_rows(3, 4, 33), std::vector<Index>{0, 1, 2, 0}, 0);
  // Cluster-repair rebuild: same tokens, new grouping, new centroids.
  store.rebuild(unit_rows(2, 4, 34), std::vector<Index>{1, 1, 0, 0}, 10);
  EXPECT_EQ(store.cluster_count(), 2);
  EXPECT_EQ(store.token_count(), 4);
  const auto c0 = store.tokens_of(0);
  EXPECT_EQ(std::vector<Index>(c0.begin(), c0.end()), (std::vector<Index>{12, 13}));
  const auto c1 = store.tokens_of(1);
  EXPECT_EQ(std::vector<Index>(c1.begin(), c1.end()), (std::vector<Index>{10, 11}));
}

TEST(CentroidStore, ScoresInnerProductDefault) {
  CentroidStore store(2);
  Matrix centroids(2, 2);
  centroids.at(0, 0) = 1.0f;
  centroids.at(1, 0) = 3.0f;
  store.add_clusters(centroids, std::vector<Index>{0, 1}, 0);
  const std::vector<float> q{2.0f, 0.0f};
  const auto scores = store.scores(q);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_NEAR(scores[0], 2.0, 1e-6);
  EXPECT_NEAR(scores[1], 6.0, 1e-6);
}

TEST(CentroidStore, LabelValidation) {
  CentroidStore store(2);
  Matrix centroids(2, 2);
  EXPECT_THROW(store.add_clusters(centroids, std::vector<Index>{0, 2}, 0),
               std::invalid_argument);
}

TEST(SelectClusters, FillsBudgetInScoreOrder) {
  const std::vector<float> scores{0.1f, 0.9f, 0.5f};
  const std::vector<Index> sizes{10, 10, 10};
  const auto sel = select_clusters(scores, sizes, 15);
  ASSERT_EQ(sel.clusters.size(), 2u);
  EXPECT_EQ(sel.clusters[0], 1);  // highest score first
  EXPECT_EQ(sel.clusters[1], 2);
  EXPECT_EQ(sel.total_tokens, 20);
  EXPECT_TRUE(sel.trimmed);
}

TEST(SelectClusters, ExactFitNotTrimmed) {
  const std::vector<float> scores{0.2f, 0.8f};
  const std::vector<Index> sizes{3, 5};
  const auto sel = select_clusters(scores, sizes, 8);
  EXPECT_EQ(sel.clusters.size(), 2u);
  EXPECT_FALSE(sel.trimmed);
  EXPECT_EQ(sel.total_tokens, 8);
}

TEST(SelectClusters, BudgetLargerThanAllTakesAll) {
  const std::vector<float> scores{0.2f, 0.8f, 0.5f};
  const std::vector<Index> sizes{3, 5, 2};
  const auto sel = select_clusters(scores, sizes, 100);
  EXPECT_EQ(sel.clusters.size(), 3u);
  EXPECT_FALSE(sel.trimmed);
}

TEST(SelectClusters, ZeroBudgetEmpty) {
  const std::vector<float> scores{0.2f};
  const std::vector<Index> sizes{3};
  EXPECT_TRUE(select_clusters(scores, sizes, 0).clusters.empty());
}

TEST(GatherSelectedTokens, TrimsLastCluster) {
  CentroidStore store(4);
  const auto centroids = unit_rows(2, 4, 7);
  // Cluster 0: tokens 0..4; cluster 1: tokens 5..9.
  std::vector<Index> labels(10, 0);
  for (Index i = 5; i < 10; ++i) {
    labels[static_cast<std::size_t>(i)] = 1;
  }
  store.add_clusters(centroids, labels, 0);

  ClusterSelection sel;
  sel.clusters = {1, 0};  // cluster 1 scored higher
  sel.total_tokens = 10;
  sel.trimmed = true;
  const auto indexed = gather_selected_tokens(store, sel, 7);
  EXPECT_EQ(indexed.token_positions.size(), 7u);
  // First 5 tokens: all of cluster 1; last 2: prefix of cluster 0.
  EXPECT_EQ(indexed.token_positions[0], 5);
  EXPECT_EQ(indexed.token_positions[4], 9);
  EXPECT_EQ(indexed.token_positions[5], 0);
  EXPECT_EQ(indexed.token_positions[6], 1);
  ASSERT_EQ(indexed.per_cluster.size(), 2u);
  EXPECT_EQ(indexed.per_cluster[0].first, 1);
  EXPECT_EQ(indexed.per_cluster[0].second.size(), 5u);
  EXPECT_EQ(indexed.per_cluster[1].second.size(), 2u);
}

TEST(GatherSelectedTokens, BudgetZeroEmpty) {
  CentroidStore store(4);
  store.add_clusters(unit_rows(1, 4, 8), std::vector<Index>{0}, 0);
  ClusterSelection sel;
  sel.clusters = {0};
  const auto indexed = gather_selected_tokens(store, sel, 0);
  EXPECT_TRUE(indexed.token_positions.empty());
}

}  // namespace
}  // namespace ckv
