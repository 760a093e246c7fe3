#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/cluster_cache.hpp"

namespace ckv {
namespace {

using Selected = std::vector<std::pair<Index, std::vector<Index>>>;

TEST(ClusterCache, FirstStepAllMiss) {
  ClusterCache cache(1);
  const Selected sel{{0, {1, 2, 3}}, {1, {7, 8}}};
  const auto r = cache.step(sel);
  EXPECT_EQ(r.hits, 0);
  EXPECT_EQ(r.misses, 5);
  EXPECT_EQ(r.missing_tokens.size(), 5u);
  EXPECT_TRUE(r.evicted_tokens.empty());
}

TEST(ClusterCache, RepeatSelectionAllHit) {
  ClusterCache cache(1);
  const Selected sel{{0, {1, 2, 3}}};
  cache.step(sel);
  const auto r = cache.step(sel);
  EXPECT_EQ(r.hits, 3);
  EXPECT_EQ(r.misses, 0);
  EXPECT_TRUE(r.missing_tokens.empty());
}

TEST(ClusterCache, DepthOneForgetsAfterOneStep) {
  ClusterCache cache(1);
  const Selected a{{0, {1, 2}}};
  const Selected b{{1, {5, 6}}};
  cache.step(a);
  const auto rb = cache.step(b);  // window now holds only b
  EXPECT_EQ(rb.misses, 2);
  EXPECT_EQ(rb.evicted_tokens, (std::vector<Index>{1, 2}));
  const auto ra = cache.step(a);  // a was evicted: misses again
  EXPECT_EQ(ra.misses, 2);
}

TEST(ClusterCache, DepthTwoSurvivesOneIntermediateStep) {
  ClusterCache cache(2);
  const Selected a{{0, {1, 2}}};
  const Selected b{{1, {5, 6}}};
  cache.step(a);
  cache.step(b);
  const auto ra = cache.step(a);  // a still in the 2-step window
  EXPECT_EQ(ra.hits, 2);
  EXPECT_EQ(ra.misses, 0);
}

TEST(ClusterCache, DepthZeroDisablesCaching) {
  ClusterCache cache(0);
  const Selected sel{{0, {1, 2}}};
  cache.step(sel);
  const auto r = cache.step(sel);
  EXPECT_EQ(r.hits, 0);
  EXPECT_EQ(r.misses, 2);
}

TEST(ClusterCache, PartialClusterOverlap) {
  ClusterCache cache(1);
  // Step 1 fetched a trimmed prefix of cluster 0.
  cache.step(Selected{{0, {10, 11}}});
  // Step 2 wants more of cluster 0: cached tokens hit, new ones miss.
  const auto r = cache.step(Selected{{0, {10, 11, 12, 13}}});
  EXPECT_EQ(r.hits, 2);
  EXPECT_EQ(r.misses, 2);
  EXPECT_EQ(r.missing_tokens, (std::vector<Index>{12, 13}));
}

TEST(ClusterCache, HitRateAccumulates) {
  ClusterCache cache(1);
  const Selected sel{{0, {1, 2, 3, 4}}};
  cache.step(sel);  // 4 misses
  cache.step(sel);  // 4 hits
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_EQ(cache.total_hits(), 4);
  EXPECT_EQ(cache.total_misses(), 4);
  EXPECT_EQ(cache.steps(), 2);
  cache.reset_counters();
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(ClusterCache, ResidentTokensUnionOverWindow) {
  ClusterCache cache(2);
  cache.step(Selected{{0, {1}}});
  cache.step(Selected{{1, {2}}});
  EXPECT_EQ(cache.resident_tokens(), (std::vector<Index>{1, 2}));
}

TEST(ClusterCache, EvictionOnlyWhenLeavingWindow) {
  ClusterCache cache(2);
  cache.step(Selected{{0, {1}}});            // window: [a]
  cache.step(Selected{{1, {2}}});            // window: [b, a]
  const auto r = cache.step(Selected{{2, {3}}});  // window: [c, b]; a leaves
  EXPECT_EQ(r.evicted_tokens, (std::vector<Index>{1}));
}

TEST(ClusterCache, ReselectedTokenNotEvicted) {
  ClusterCache cache(1);
  cache.step(Selected{{0, {1, 2}}});
  // Token 1 re-selected (cluster trimmed differently): stays resident.
  const auto r = cache.step(Selected{{0, {1}}});
  EXPECT_EQ(r.hits, 1);
  EXPECT_EQ(r.evicted_tokens, (std::vector<Index>{2}));
}

TEST(ClusterCache, NegativeDepthRejected) {
  EXPECT_THROW(ClusterCache(-1), std::invalid_argument);
}

TEST(ClusterCache, NegativeTokenRejectedWithCacheUnchanged) {
  ClusterCache cache(2);
  cache.step(Selected{{0, {1, 2}}});
  // The bad token sits after valid ones: nothing before it may be applied.
  EXPECT_THROW(cache.step(Selected{{0, {1}}, {1, {5, -1}}}), std::invalid_argument);
  EXPECT_EQ(cache.steps(), 1);
  EXPECT_EQ(cache.total_hits(), 0);
  EXPECT_EQ(cache.total_misses(), 2);
  EXPECT_EQ(cache.resident_tokens(), (std::vector<Index>{1, 2}));
  // The window still works: token 1 hits, token 5 misses.
  const auto r = cache.step(Selected{{0, {1}}, {1, {5}}});
  EXPECT_EQ(r.hits, 1);
  EXPECT_EQ(r.missing_tokens, (std::vector<Index>{5}));
}

TEST(ClusterCache, RemapWindowPreservesResidencyUnderNewLabels) {
  ClusterCache cache(2);
  cache.step(Selected{{0, {1, 2}}, {1, {5}}});
  cache.step(Selected{{2, {7, 8}}});
  const auto resident_before = cache.resident_tokens();

  // Cluster repair relabeled: tokens 1,2,7 now live in cluster 4; 5 and 8
  // in cluster 0 (position-indexed map; unclustered positions are -1).
  const std::vector<Index> token_to_cluster{-1, 4, 4, -1, -1, 0, -1, 4, 0};
  cache.remap_window(token_to_cluster);

  EXPECT_EQ(cache.resident_tokens(), resident_before);
  // Selecting under the *new* labels hits; the old labels are gone.
  const auto r = cache.step(Selected{{4, {1, 2, 7}}, {0, {5, 8}}});
  EXPECT_EQ(r.hits, 5);
  EXPECT_EQ(r.misses, 0);
}

TEST(ClusterCache, RemapWindowRejectsUnmappedCachedToken) {
  ClusterCache cache(1);
  cache.step(Selected{{0, {3}}});
  EXPECT_THROW(cache.remap_window(std::vector<Index>{0, 0, 0, -1}),
               std::invalid_argument);
  EXPECT_THROW(cache.remap_window(std::vector<Index>{0, 0}),  // too short
               std::invalid_argument);
}

TEST(ClusterCache, HigherDepthNeverLowersHitRate) {
  // Property: for the same access trace, a deeper window can only hit more.
  const std::vector<Selected> trace{
      {{0, {1, 2}}}, {{1, {3}}},    {{0, {1, 2}}}, {{2, {4, 5}}},
      {{1, {3}}},    {{0, {1, 2}}}, {{2, {4, 5}}}, {{1, {3}}},
  };
  double previous_rate = -1.0;
  for (const Index depth : {0, 1, 2, 3}) {
    ClusterCache cache(depth);
    for (const auto& sel : trace) {
      cache.step(sel);
    }
    EXPECT_GE(cache.hit_rate(), previous_rate);
    previous_rate = cache.hit_rate();
  }
}

}  // namespace
}  // namespace ckv
