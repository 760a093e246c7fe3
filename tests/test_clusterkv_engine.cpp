#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/clusterkv_engine.hpp"
#include "model/procedural.hpp"
#include "tensor/rng.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

/// Builds an engine fed with a procedurally generated head context.
struct Fixture {
  Fixture(Index prompt_len, const ClusterKVConfig& config, std::uint64_t seed = 99)
      : params(make_params()),
        stream(params, Rng(derive_seed(seed, "head")), prompt_len),
        engine(params.head_dim, config, Rng(derive_seed(seed, "engine"))) {
    engine.observe_prefill(stream.keys(), stream.values());
  }

  static ProceduralParams make_params() {
    ProceduralParams p;
    p.head_dim = 32;
    p.num_topics = 16;
    return p;
  }

  ProceduralParams params;
  HeadStream stream;
  ClusterKVEngine engine;
};

ClusterKVConfig small_config() {
  ClusterKVConfig c;
  c.sink_tokens = 8;
  c.tokens_per_cluster = 40;
  c.decode_interval = 16;
  c.decode_clusters = 2;
  return c;
}

TEST(ClusterKVEngine, BudgetCoveringContextSelectsEverything) {
  Fixture f(300, small_config());
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 300);
  ASSERT_EQ(sel.indices.size(), 300u);
  for (Index i = 0; i < 300; ++i) {
    EXPECT_EQ(sel.indices[static_cast<std::size_t>(i)], i);
  }
}

TEST(ClusterKVEngine, RespectsBudget) {
  Fixture f(600, small_config());
  const auto q = f.stream.query(0);
  for (const Index budget : {16, 64, 128, 300}) {
    const auto sel = f.engine.select(q, budget);
    EXPECT_LE(static_cast<Index>(sel.indices.size()), budget);
    // Trimming should land exactly on the budget when enough tokens exist.
    EXPECT_EQ(static_cast<Index>(sel.indices.size()), budget);
  }
}

TEST(ClusterKVEngine, SinksAlwaysSelected) {
  const auto config = small_config();
  Fixture f(500, config);
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 64);
  for (Index s = 0; s < config.sink_tokens; ++s) {
    EXPECT_TRUE(std::binary_search(sel.indices.begin(), sel.indices.end(), s))
        << "sink " << s << " missing";
  }
}

TEST(ClusterKVEngine, PendingDecodeTokensAlwaysSelected) {
  Fixture f(400, small_config());
  // Generate 5 tokens (below the decode_interval of 16): all pending.
  for (int i = 0; i < 5; ++i) {
    f.stream.append_generated();
    const Index last = f.stream.size() - 1;
    f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  }
  EXPECT_EQ(f.engine.pending_count(), 5);
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 64);
  for (Index t = 400; t < 405; ++t) {
    EXPECT_TRUE(std::binary_search(sel.indices.begin(), sel.indices.end(), t));
  }
}

TEST(ClusterKVEngine, DecodeClusteringFlushesAtInterval) {
  const auto config = small_config();
  Fixture f(400, config);
  const Index before = f.engine.centroid_store().cluster_count();
  for (Index i = 0; i < config.decode_interval; ++i) {
    f.stream.append_generated();
    const Index last = f.stream.size() - 1;
    f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  }
  EXPECT_EQ(f.engine.pending_count(), 0);
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), before + config.decode_clusters);
}

TEST(ClusterKVEngine, FlushPendingPartialBatch) {
  Fixture f(400, small_config());
  for (int i = 0; i < 3; ++i) {
    f.stream.append_generated();
    const Index last = f.stream.size() - 1;
    f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  }
  f.engine.flush_pending();
  EXPECT_EQ(f.engine.pending_count(), 0);
  // All tokens are now covered: sinks + clustered.
  EXPECT_EQ(f.engine.centroid_store().token_count() + f.engine.sink_count(),
            f.engine.context_size());
}

TEST(ClusterKVEngine, ClusterCountFollowsPaperRule) {
  ClusterKVConfig config;
  config.sink_tokens = 16;
  config.tokens_per_cluster = 80;
  Fixture f(16 + 800, config);
  // (816 - 16 sinks) / 80 = 10 clusters.
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), 10);
}

TEST(ClusterKVEngine, FixedClusterCountOverride) {
  ClusterKVConfig config;
  config.fixed_cluster_count = 7;
  Fixture f(500, config);
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), 7);
}

// Whole-prompt prefill is the one-chunk case of chunked prefill: both
// entry points register the same clusters and select the same tokens,
// with the paper's C0 rule and with the fixed_cluster_count override.
TEST(ClusterKVEngine, WholePromptPrefillIsOneLastChunk) {
  for (const Index fixed : {0, 7}) {
    ClusterKVConfig config = small_config();
    config.fixed_cluster_count = fixed;
    const ProceduralParams params = Fixture::make_params();
    HeadStream stream(params, Rng(derive_seed(5, "head")), 500);
    ClusterKVEngine whole(params.head_dim, config, Rng(derive_seed(5, "engine")));
    ClusterKVEngine chunk(params.head_dim, config, Rng(derive_seed(5, "engine")));
    whole.observe_prefill(stream.keys(), stream.values());
    chunk.observe_prefill_chunk(stream.keys(), stream.values(), /*last_chunk=*/true);

    const CentroidStore& a = whole.centroid_store();
    const CentroidStore& b = chunk.centroid_store();
    ASSERT_EQ(a.cluster_count(), b.cluster_count()) << fixed;
    // (500 - 8 sinks) / 40 tokens per cluster, or the override.
    EXPECT_EQ(a.cluster_count(), fixed > 0 ? fixed : 12) << fixed;
    EXPECT_EQ(whole.sink_count(), chunk.sink_count()) << fixed;
    const auto sizes_a = a.cluster_sizes();
    const auto sizes_b = b.cluster_sizes();
    EXPECT_TRUE(
        std::equal(sizes_a.begin(), sizes_a.end(), sizes_b.begin(), sizes_b.end()));
    for (Index c = 0; c < a.cluster_count(); ++c) {
      const auto ra = a.centroids().row(c);
      const auto rb = b.centroids().row(c);
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) << c;
      const auto ta = a.tokens_of(c);
      const auto tb = b.tokens_of(c);
      EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end())) << c;
    }
    for (Index s = 0; s < 4; ++s) {
      const auto q = stream.query(s);
      EXPECT_EQ(whole.select(q, 120).indices, chunk.select(q, 120).indices) << s;
    }
  }
}

TEST(ClusterKVEngine, SelectionRecallsBetterThanRandom) {
  Fixture f(1600, small_config());
  // Decode a few steps so the focus process moves around.
  double recall_sum = 0.0;
  int steps = 0;
  for (Index s = 0; s < 12; ++s) {
    f.stream.append_generated();
    const Index last = f.stream.size() - 1;
    f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
    const auto q = f.stream.query(s);
    const Index budget = 160;
    const auto sel = f.engine.select(q, budget);
    const auto scores = f.stream.attention_scores(q);
    const auto truth = top_k_indices(scores, budget);
    const std::set<Index> chosen(sel.indices.begin(), sel.indices.end());
    Index hit = 0;
    for (const Index t : truth) {
      if (chosen.contains(t)) {
        ++hit;
      }
    }
    recall_sum += static_cast<double>(hit) / static_cast<double>(budget);
    ++steps;
  }
  const double mean_recall = recall_sum / steps;
  // Random selection would land near budget/context = 0.1; semantic
  // clustering must do substantially better even at this small scale.
  EXPECT_GT(mean_recall, 0.2);
}

TEST(ClusterKVEngine, CacheHitsOnRepeatedQueries) {
  Fixture f(800, small_config());
  const auto q = f.stream.query(0);
  const auto first = f.engine.select(q, 100);
  EXPECT_GT(first.tokens_fetched, 0);
  EXPECT_EQ(first.tokens_cache_hit, 0);
  // Same query at the next step: the cluster cache (R = 1) serves it.
  const auto second = f.engine.select(q, 100);
  EXPECT_EQ(second.tokens_fetched, 0);
  EXPECT_GT(second.tokens_cache_hit, 0);
}

TEST(ClusterKVEngine, TransfersAccountedInTieredStore) {
  Fixture f(800, small_config());
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 100);
  const auto& stats = f.engine.tiered_store().stats();
  EXPECT_EQ(stats.tokens_fetched, sel.tokens_fetched);
  EXPECT_GT(stats.bytes_to_fast, 0);
  // All non-sink prompt tokens were offloaded after prefill clustering.
  EXPECT_GE(stats.tokens_offloaded, 800 - f.engine.sink_count());
}

TEST(ClusterKVEngine, ShortPromptAllSinks) {
  ClusterKVConfig config;
  config.sink_tokens = 16;
  Fixture f(10, config);
  EXPECT_EQ(f.engine.sink_count(), 10);
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), 0);
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 5);
  // Sinks are always attended even when they exceed the budget.
  EXPECT_EQ(sel.indices.size(), 10u);
}

// Chunked prefill: slices arrive across ticks; clustering is incremental
// (pending prompt tokens accumulate until a full tokens_per_cluster batch
// or the final chunk) and the end state covers the whole prompt exactly
// like the one-shot path: sinks + clustered tokens, nothing pending.
TEST(ClusterKVEngine, ChunkedPrefillCoversPromptIncrementally) {
  const auto config = small_config();  // 8 sinks, 40 tokens/cluster
  const auto params = Fixture::make_params();
  HeadStream stream(params, Rng(derive_seed(31, "head")), 200);
  ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(31, "engine")));

  // Chunk 1 (25 tokens): 8 sinks + 17 pending — fewer than a cluster
  // batch, so nothing clusters yet and everything stays fast.
  engine.observe_prefill_chunk(stream.keys().row_slice(0, 25),
                               stream.values().row_slice(0, 25), false);
  EXPECT_EQ(engine.sink_count(), 8);
  EXPECT_EQ(engine.pending_count(), 17);
  EXPECT_EQ(engine.centroid_store().cluster_count(), 0);
  EXPECT_EQ(engine.fast_resident_tokens(), 25);

  // Chunk 2 (+75 tokens): 92 pending >= 40 flushes them all into
  // ceil-free 92/40 = 2 clusters and offloads them to the slow tier.
  engine.observe_prefill_chunk(stream.keys().row_slice(25, 100),
                               stream.values().row_slice(25, 100), false);
  EXPECT_EQ(engine.pending_count(), 0);
  EXPECT_EQ(engine.centroid_store().token_count(), 92);
  EXPECT_EQ(engine.fast_resident_tokens(), 8);  // sinks only

  // Final chunk (+100): the remainder flushes even though it is short.
  engine.observe_prefill_chunk(stream.keys().row_slice(100, 200),
                               stream.values().row_slice(100, 200), true);
  EXPECT_EQ(engine.pending_count(), 0);
  EXPECT_EQ(engine.context_size(), 200);
  EXPECT_EQ(engine.centroid_store().token_count() + engine.sink_count(), 200);

  // Whole-prompt one-shot prefill is now rejected (context exists).
  EXPECT_THROW(engine.observe_prefill(stream.keys(), stream.values()),
               std::invalid_argument);
  // Selection still honors the invariants over the chunk-built state.
  auto q = stream.query(0);
  const auto sel = engine.select(q, 64);
  EXPECT_LE(static_cast<Index>(sel.indices.size()), 64);
  for (Index s = 0; s < engine.sink_count(); ++s) {
    EXPECT_TRUE(engine.tiered_store().is_fast_resident(s));
  }
}

// The sink prefix can span chunk boundaries when the first chunk is
// smaller than sink_tokens.
TEST(ClusterKVEngine, SinkPrefixSpansChunks) {
  ClusterKVConfig config = small_config();
  config.sink_tokens = 16;
  const auto params = Fixture::make_params();
  HeadStream stream(params, Rng(derive_seed(32, "head")), 120);
  ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(32, "engine")));

  engine.observe_prefill_chunk(stream.keys().row_slice(0, 6),
                               stream.values().row_slice(0, 6), false);
  EXPECT_EQ(engine.sink_count(), 6);  // all-sink so far
  engine.observe_prefill_chunk(stream.keys().row_slice(6, 120),
                               stream.values().row_slice(6, 120), true);
  EXPECT_EQ(engine.sink_count(), 16);  // extended, never re-clustered
  EXPECT_EQ(engine.centroid_store().token_count(), 120 - 16);
  for (Index s = 0; s < 16; ++s) {
    EXPECT_TRUE(engine.tiered_store().is_fast_resident(s));
  }
}

TEST(ClusterKVEngine, PrefillTwiceRejected) {
  Fixture f(100, small_config());
  EXPECT_THROW(f.engine.observe_prefill(f.stream.keys(), f.stream.values()),
               std::invalid_argument);
}

TEST(ClusterKVEngine, SelectionIsSortedUnique) {
  Fixture f(700, small_config());
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 200);
  EXPECT_TRUE(std::is_sorted(sel.indices.begin(), sel.indices.end()));
  EXPECT_EQ(std::adjacent_find(sel.indices.begin(), sel.indices.end()),
            sel.indices.end());
}

TEST(ClusterKVEngine, RepresentationWorkIsClusterCount) {
  Fixture f(800, small_config());
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, 100);
  EXPECT_EQ(sel.representations_scored, f.engine.centroid_store().cluster_count());
  // An order of magnitude fewer representations than tokens (§III-A).
  EXPECT_LT(sel.representations_scored * 10, f.engine.context_size());
}

TEST(ClusterKVEngine, FactoryDerivesDistinctStreams) {
  const auto factory = make_clusterkv_factory(small_config(), 7);
  auto a = factory(0, 0, 32);
  auto b = factory(0, 1, 32);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "ClusterKV");
}


TEST(ClusterKVEngine, FlushZeroPendingIsNoOp) {
  Fixture f(400, small_config());
  const Index clusters_before = f.engine.centroid_store().cluster_count();
  const std::int64_t flops_before = f.engine.clustering_flops();
  f.engine.flush_pending();  // nothing pending: no clusters, no flops
  f.engine.flush_pending();  // idempotent
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), clusters_before);
  EXPECT_EQ(f.engine.clustering_flops(), flops_before);
}

TEST(ClusterKVEngine, FlushSingleTokenMakesOneNonEmptyCluster) {
  const auto config = small_config();  // decode_clusters = 2 > pending = 1
  Fixture f(400, config);
  f.stream.append_generated();
  const Index last = f.stream.size() - 1;
  f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  const Index clusters_before = f.engine.centroid_store().cluster_count();
  f.engine.flush_pending();
  // One token can only make one cluster, never decode_clusters' worth.
  EXPECT_EQ(f.engine.centroid_store().cluster_count(), clusters_before + 1);
  for (Index c = 0; c < f.engine.centroid_store().cluster_count(); ++c) {
    EXPECT_GT(f.engine.centroid_store().size_of(c), 0);
  }
}

TEST(ClusterKVEngine, FlushDuplicateKeysNeverRegistersEmptyClusters) {
  // Identical pending keys degenerate k-means (seeds collide, reseeding
  // can leave a cluster empty); the engine must compact those away before
  // they reach the centroid store.
  auto config = small_config();
  config.decode_clusters = 4;
  Fixture f(200, config);
  std::vector<float> key(static_cast<std::size_t>(f.params.head_dim), 0.5f);
  for (int i = 0; i < 4; ++i) {
    f.engine.observe_decode(key, key);  // four identical tokens
  }
  f.engine.flush_pending();
  EXPECT_EQ(f.engine.pending_count(), 0);
  Index covered = f.engine.sink_count();
  for (Index c = 0; c < f.engine.centroid_store().cluster_count(); ++c) {
    EXPECT_GT(f.engine.centroid_store().size_of(c), 0) << "empty cluster " << c;
    covered += f.engine.centroid_store().size_of(c);
  }
  EXPECT_EQ(covered, f.engine.context_size());
}

TEST(ClusterKVEngine, PartialFlushBillsClampedClusterCount) {
  // Flops for a 3-token flush must be billed at min(C+, 3) centroids; a
  // same-size full-rate flush with C+ = 2 gives an upper bound, so the
  // partial flush can never charge more than the clamped problem costs.
  const auto config = small_config();
  Fixture f(400, config);
  const std::int64_t before = f.engine.clustering_flops();
  for (int i = 0; i < 3; ++i) {
    f.stream.append_generated();
    const Index last = f.stream.size() - 1;
    f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  }
  f.engine.flush_pending();
  const std::int64_t billed = f.engine.clustering_flops() - before;
  EXPECT_GT(billed, 0);
  // assignment work <= iterations_cap * tokens * clamped_clusters * d MACs
  const std::int64_t cap = config.kmeans_max_iterations * 3 *
                           std::min<Index>(config.decode_clusters, 3) *
                           f.params.head_dim;
  EXPECT_LE(billed, cap);
}

TEST(ClusterKVEngine, ReleaseFastTierKeepsSinksAndPending) {
  const auto config = small_config();
  Fixture f(400, config);
  f.stream.append_generated();
  const Index last = f.stream.size() - 1;
  f.engine.observe_decode(f.stream.keys().row(last), f.stream.values().row(last));
  const auto q = f.stream.query(0);
  f.engine.select(q, 64);  // pulls cluster tokens fast
  EXPECT_GT(f.engine.fast_resident_tokens(), f.engine.sink_count() + 1);

  f.engine.release_fast_tier();
  EXPECT_EQ(f.engine.fast_resident_tokens(), f.engine.sink_count() + 1);
  for (Index s = 0; s < f.engine.sink_count(); ++s) {
    EXPECT_TRUE(f.engine.tiered_store().is_fast_resident(s));
  }
  EXPECT_TRUE(f.engine.tiered_store().is_fast_resident(f.engine.context_size() - 1));

  // Selection still works afterwards and refetches what it needs.
  const auto sel = f.engine.select(q, 64);
  EXPECT_GT(sel.tokens_fetched, 0);
}


class ClusterKVBudgetSweep : public ::testing::TestWithParam<Index> {};

TEST_P(ClusterKVBudgetSweep, SelectionSizeTracksBudget) {
  const Index budget = GetParam();
  Fixture f(1024, small_config());
  const auto q = f.stream.query(0);
  const auto sel = f.engine.select(q, budget);
  EXPECT_EQ(static_cast<Index>(sel.indices.size()), std::min<Index>(budget, 1024));
}

INSTANTIATE_TEST_SUITE_P(Budgets, ClusterKVBudgetSweep,
                         ::testing::Values(16, 32, 64, 128, 256, 512, 1024, 2048));

}  // namespace
}  // namespace ckv
