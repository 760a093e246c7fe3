#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/cluster_repair.hpp"
#include "core/clusterkv_engine.hpp"
#include "core/kernels.hpp"
#include "core/kmeans.hpp"
#include "model/procedural.hpp"
#include "tensor/rng.hpp"
#include "tensor/stats.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

/// Keys drawn from well-separated unit directions, in contiguous runs so
/// chunk boundaries split topics deterministically.
Matrix planted_keys(Index n, Index dim, Index topics, std::uint64_t seed,
                    std::vector<Index>* truth = nullptr) {
  Rng rng(seed);
  Matrix dirs(topics, dim);
  for (Index t = 0; t < topics; ++t) {
    copy_to(rng.unit_vector(dim), dirs.row(t));
  }
  Matrix keys(n, dim);
  for (Index i = 0; i < n; ++i) {
    const Index t = (i * topics) / n;  // topic runs of n/topics tokens
    if (truth != nullptr) {
      truth->push_back(t);
    }
    auto row = keys.row(i);
    copy_to(dirs.row(t), row);
    for (float& x : row) {
      x += static_cast<float>(rng.normal(0.0, 0.03));
    }
  }
  return keys;
}

/// Registers `keys` into the store as `batches` equal position ranges,
/// each clustered independently (the chunk-local regression in vitro).
void register_batches(CentroidStore& store, const Matrix& keys, Index batches,
                      Index clusters_per_batch, std::uint64_t seed) {
  Rng rng(seed);
  const Index per_batch = keys.rows() / batches;
  for (Index b = 0; b < batches; ++b) {
    const Index begin = b * per_batch;
    const Index end = b + 1 == batches ? keys.rows() : begin + per_batch;
    KMeansConfig config;
    config.num_clusters = clusters_per_batch;
    config.max_iterations = 50;
    const auto result = kmeans_cluster(keys.row_slice(begin, end), config, rng);
    store.add_clusters(result.centroids, result.labels, begin);
  }
}

TEST(ClusterRepair, MergesAdjacentBatchesAndKeepsEveryToken) {
  const Index n = 240;
  const auto keys = planted_keys(n, 16, 4, 21);
  CentroidStore store(16);
  register_batches(store, keys, 4, 3, 5);
  ASSERT_EQ(store.token_count(), n);

  ClusterRepairConfig config;
  config.refine_iterations = 50;
  config.tokens_per_cluster = 60;
  const std::int64_t flops = repair_clusters(store, keys, 0, config);

  // 240 tokens at 60 per cluster: the joint pass re-clusters to 4, and
  // its work is whole refinement iterations over that problem.
  EXPECT_EQ(store.cluster_count(), 4);
  const std::int64_t per_iteration = assignment_flops(n, 4, 16);
  EXPECT_GT(flops, 0);
  EXPECT_EQ(flops % per_iteration, 0);
  EXPECT_LE(flops / per_iteration, config.refine_iterations);
  // Rebuild preserves the token universe exactly: every position once.
  EXPECT_EQ(store.token_count(), n);
  std::set<Index> seen;
  for (Index c = 0; c < store.cluster_count(); ++c) {
    EXPECT_GT(store.size_of(c), 0);
    for (const Index t : store.tokens_of(c)) {
      EXPECT_TRUE(seen.insert(t).second);
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), n);
}

TEST(ClusterRepair, RepairedClustersRecoverPlantedTopics) {
  std::vector<Index> truth;
  const auto keys = planted_keys(300, 24, 5, 22, &truth);
  CentroidStore store(24);
  register_batches(store, keys, 5, 2, 6);

  ClusterRepairConfig config;
  config.refine_iterations = 60;
  config.tokens_per_cluster = 60;
  ASSERT_GT(repair_clusters(store, keys, 0, config), 0);
  ASSERT_EQ(store.cluster_count(), 5);

  // After repair, clusters align with the planted topics: pairwise label
  // agreement against the ground truth is near perfect.
  std::vector<Index> label(static_cast<std::size_t>(store.token_count()), -1);
  for (Index c = 0; c < store.cluster_count(); ++c) {
    for (const Index t : store.tokens_of(c)) {
      label[static_cast<std::size_t>(t)] = c;
    }
  }
  Index agree = 0;
  Index total = 0;
  for (std::size_t i = 0; i < truth.size(); i += 2) {
    for (std::size_t j = i + 1; j < truth.size(); j += 11) {
      const bool same_truth = truth[i] == truth[j];
      const bool same_label = label[i] == label[j];
      agree += same_truth == same_label ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.97);
}

// ---- engine-level repair ----

ClusterKVConfig repair_engine_config() {
  ClusterKVConfig config;
  config.sink_tokens = 8;
  config.tokens_per_cluster = 40;
  config.decode_interval = 16;
  config.decode_clusters = 2;
  config.kmeans_max_iterations = 100;
  // k-means++ seeding lands the one-shot baseline on the planted optimum,
  // so the repair-equivalence comparison is against the best clustering
  // the paper's pipeline can produce, not a random-seed local optimum.
  config.kmeans_init = KMeansInit::kPlusPlus;
  return config;
}

ProceduralParams planted_params() {
  ProceduralParams p;
  p.head_dim = 32;
  p.num_topics = 6;
  // Well-separated topics: k-means then converges to the planted partition
  // from any reasonable init, which is what makes the chunked+repair vs
  // one-shot equivalence exact instead of merely statistical.
  p.key_noise = 0.05;
  p.key_scale_sigma = 0.05;
  p.outlier_channels = 0;
  return p;
}

double jaccard(const std::vector<Index>& a, const std::vector<Index>& b) {
  const std::set<Index> sa(a.begin(), a.end());
  const std::set<Index> sb(b.begin(), b.end());
  Index both = 0;
  for (const Index x : sa) {
    both += sb.contains(x) ? 1 : 0;
  }
  const Index either = static_cast<Index>(sa.size() + sb.size()) - both;
  return either == 0 ? 1.0 : static_cast<double>(both) / static_cast<double>(either);
}

/// Repair equivalence: chunked prefill + exhaustive repair (the joint
/// pass refined to convergence) selects the one-shot clustering's top-B
/// tokens on identical prompts. k-means converges to init-dependent
/// local optima, so the equivalence is stated as the strongest robust
/// form: identical cluster counts, near-identical selected sets (and
/// strictly closer than the unrepaired run), and recall recovered to
/// within noise of one-shot.
TEST(ClusterRepairEngine, ChunkedPlusExhaustiveRepairMatchesOneShot) {
  const auto params = planted_params();
  const Index prompt = 248;
  HeadStream stream(params, Rng(derive_seed(77, "head")), prompt);

  auto one_shot_config = repair_engine_config();
  one_shot_config.repair_refine_iterations = 0;  // one-shot never repairs
  ClusterKVEngine one_shot(params.head_dim, one_shot_config,
                           Rng(derive_seed(77, "one-shot")));
  one_shot.observe_prefill(stream.keys(), stream.values());

  auto repaired_config = repair_engine_config();
  repaired_config.repair_refine_iterations = 100;  // refine to convergence
  ClusterKVEngine repaired(params.head_dim, repaired_config,
                           Rng(derive_seed(77, "repaired")));
  auto unrepaired_config = repair_engine_config();
  unrepaired_config.repair_refine_iterations = 0;
  ClusterKVEngine unrepaired(params.head_dim, unrepaired_config,
                             Rng(derive_seed(77, "unrepaired")));
  for (Index begin = 0; begin < prompt; begin += 60) {
    const Index end = std::min<Index>(prompt, begin + 60);
    repaired.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                   stream.values().row_slice(begin, end),
                                   end == prompt);
    unrepaired.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                     stream.values().row_slice(begin, end),
                                     end == prompt);
  }
  EXPECT_GT(repaired.repair_passes(), 0);
  EXPECT_GT(repaired.repair_flops(), 0);
  // Exhaustive repair restores the one-shot granularity (chunk-local
  // clustering had produced one coarse cluster per ~60-token chunk).
  ASSERT_EQ(repaired.centroid_store().cluster_count(),
            one_shot.centroid_store().cluster_count());
  ASSERT_LT(unrepaired.centroid_store().cluster_count(),
            one_shot.centroid_store().cluster_count());

  const Index budget = 96;
  RunningStat agree_repaired;
  RunningStat agree_unrepaired;
  RunningStat recall_one_shot;
  RunningStat recall_repaired;
  RunningStat recall_unrepaired;
  auto recall_of = [&](const std::vector<Index>& indices, std::span<const float> scores) {
    const auto truth = top_k_indices(scores, budget);
    const std::set<Index> chosen(indices.begin(), indices.end());
    Index hit = 0;
    for (const Index t : truth) {
      hit += chosen.contains(t) ? 1 : 0;
    }
    return static_cast<double>(hit) / static_cast<double>(budget);
  };
  for (Index step = 0; step < 8; ++step) {
    const auto q = stream.query(step);
    const auto scores = stream.attention_scores(q);
    const auto base = one_shot.select(q, budget);
    const auto with_repair = repaired.select(q, budget);
    const auto without = unrepaired.select(q, budget);
    agree_repaired.add(jaccard(base.indices, with_repair.indices));
    agree_unrepaired.add(jaccard(base.indices, without.indices));
    recall_one_shot.add(recall_of(base.indices, scores));
    recall_repaired.add(recall_of(with_repair.indices, scores));
    recall_unrepaired.add(recall_of(without.indices, scores));
  }
  // Exhaustive repair lands exactly on the one-shot selection (the planted
  // optimum both convergent runs find), while the unrepaired chunk-local
  // clustering sits far from it.
  EXPECT_DOUBLE_EQ(agree_repaired.mean(), 1.0);
  EXPECT_LT(agree_unrepaired.mean(), 0.6);
  // And the recall it recovers is one-shot's — the chunked regression sits
  // well below both.
  EXPECT_GT(recall_repaired.mean(), recall_one_shot.mean() - 1e-9);
  EXPECT_GT(recall_repaired.mean(), recall_unrepaired.mean() + 0.1);
}

/// Repair is metadata-only: fast-tier residency, sinks and the pending
/// tail are bit-identical across a pass, so every scheduler budget/sink
/// invariant holds mid-repair and nothing is re-pinned.
TEST(ClusterRepairEngine, RepairNeverTouchesResidencyOrSinks) {
  const auto params = planted_params();
  auto config = repair_engine_config();
  config.repair_refine_iterations = 0;  // repair only when asked below
  HeadStream stream(params, Rng(derive_seed(78, "head")), 300);
  ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(78, "engine")));
  for (Index begin = 0; begin < 300; begin += 64) {
    const Index end = std::min<Index>(300, begin + 64);
    engine.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                 stream.values().row_slice(begin, end), end == 300);
  }
  // Select (pulls cluster tokens fast, fills the cache window) and decode
  // a little (pending tail) so the pass runs over a busy engine.
  engine.select(stream.query(0), 96);
  for (Index s = 0; s < 5; ++s) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    engine.observe_decode(stream.keys().row(last), stream.values().row(last));
  }
  engine.select(stream.query(1), 96);

  const auto fast_before = engine.tiered_store().fast_positions();
  const auto fetched_before = engine.tiered_store().stats().tokens_fetched;
  const auto offloaded_before = engine.tiered_store().stats().tokens_offloaded;
  const Index pending_before = engine.pending_count();
  ASSERT_GT(static_cast<Index>(fast_before.size()),
            engine.sink_count() + pending_before);  // cached tokens are fast

  EXPECT_TRUE(engine.repair_now());

  EXPECT_EQ(engine.tiered_store().fast_positions(), fast_before);
  EXPECT_EQ(engine.tiered_store().stats().tokens_fetched, fetched_before);
  EXPECT_EQ(engine.tiered_store().stats().tokens_offloaded, offloaded_before);
  EXPECT_EQ(engine.pending_count(), pending_before);
  for (Index s = 0; s < engine.sink_count(); ++s) {
    EXPECT_TRUE(engine.tiered_store().is_fast_resident(s)) << "sink " << s;
  }
}

/// An end-of-prompt tail shorter than tokens_per_cluster registers a
/// clustering batch of its own; with repair on, the post-prefill pass
/// absorbs it, leaving the paper rule's cluster count over every
/// clustered token.
TEST(ClusterRepairEngine, ShortFinalTailIsItsOwnBatchUntilRepair) {
  const auto params = planted_params();
  const Index prompt = 105;  // 8 sinks, then 92 flushed + a 5-token tail
  HeadStream stream(params, Rng(derive_seed(79, "head")), prompt);
  const auto prefill = [&](ClusterKVEngine& engine) {
    engine.observe_prefill_chunk(stream.keys().row_slice(0, 100),
                                 stream.values().row_slice(0, 100), false);
    EXPECT_EQ(engine.centroid_store().cluster_count(), 2);  // 92 / 40
    engine.observe_prefill_chunk(stream.keys().row_slice(100, prompt),
                                 stream.values().row_slice(100, prompt), true);
    EXPECT_EQ(engine.pending_count(), 0);
    EXPECT_EQ(engine.centroid_store().token_count() + engine.sink_count(),
              engine.context_size());
  };

  auto no_repair = repair_engine_config();
  no_repair.repair_refine_iterations = 0;
  ClusterKVEngine tail_batch(params.head_dim, no_repair, Rng(derive_seed(79, "engine")));
  prefill(tail_batch);
  // The tail is one cluster of exactly its 5 tokens.
  ASSERT_EQ(tail_batch.centroid_store().cluster_count(), 3);
  const auto tail = tail_batch.centroid_store().tokens_of(2);
  EXPECT_EQ(std::vector<Index>(tail.begin(), tail.end()),
            (std::vector<Index>{100, 101, 102, 103, 104}));

  ClusterKVEngine repaired(params.head_dim, repair_engine_config(),
                           Rng(derive_seed(79, "engine")));
  prefill(repaired);
  EXPECT_EQ(repaired.repair_passes(), 1);
  const auto& store = repaired.centroid_store();
  EXPECT_EQ(store.cluster_count(), default_cluster_count(97, 40));
  // The repaired clusters tile the clustered range [8, 105) exactly once.
  std::vector<Index> tiled;
  for (Index c = 0; c < store.cluster_count(); ++c) {
    EXPECT_GT(store.size_of(c), 0);
    const auto tokens = store.tokens_of(c);
    tiled.insert(tiled.end(), tokens.begin(), tokens.end());
  }
  std::sort(tiled.begin(), tiled.end());
  std::vector<Index> clustered(97);
  std::iota(clustered.begin(), clustered.end(), Index{8});
  EXPECT_EQ(tiled, clustered);
}

/// The engine owns the two-batch rule: a prompt prefilled as one batch
/// (and no decode flush since) leaves nothing to repair across, so the
/// pass is skipped and charges nothing.
TEST(ClusterRepairEngine, SingleBatchIsNoOp) {
  const auto params = planted_params();
  HeadStream stream(params, Rng(derive_seed(82, "head")), 200);
  ClusterKVEngine engine(params.head_dim, repair_engine_config(),
                         Rng(derive_seed(82, "engine")));
  engine.observe_prefill(stream.keys(), stream.values());
  const Matrix centroids = engine.centroid_store().centroids();
  EXPECT_FALSE(engine.repair_now());
  EXPECT_EQ(engine.repair_passes(), 0);
  EXPECT_EQ(engine.repair_flops(), 0);
  EXPECT_EQ(engine.centroid_store().centroids().flat().size(), centroids.flat().size());
  EXPECT_TRUE(std::ranges::equal(engine.centroid_store().centroids().flat(),
                                 centroids.flat()));
}

/// One pass bills its iterations of the joint problem: n clustered tokens
/// against max(1, n / tokens_per_cluster) centroids. Refinement is
/// deterministic, so a cap of c runs min(c, K) iterations, where K is the
/// iteration at which the labels settle (at least 2: the first
/// assignment always changes them).
TEST(ClusterRepairEngine, PassFlopsAreIterationsOfTheJointProblem) {
  const auto params = planted_params();
  const Index prompt = 248;  // 8 sinks + 240 clustered tokens, 60-token chunks
  HeadStream stream(params, Rng(derive_seed(83, "head")), prompt);
  const Index n = prompt - 8;
  const std::int64_t per_iteration =
      assignment_flops(n, std::max<Index>(1, n / 40), params.head_dim);
  const auto pass_flops = [&](Index cap) {
    auto config = repair_engine_config();
    config.repair_refine_iterations = cap;
    ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(83, "engine")));
    for (Index begin = 0; begin < prompt; begin += 60) {
      const Index end = std::min<Index>(prompt, begin + 60);
      engine.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                   stream.values().row_slice(begin, end), end == prompt);
    }
    EXPECT_EQ(engine.repair_passes(), 1);
    return engine.repair_flops();
  };
  const std::int64_t uncapped = pass_flops(100);
  ASSERT_EQ(uncapped % per_iteration, 0);
  const Index settled = uncapped / per_iteration;
  ASSERT_GE(settled, 2);
  for (Index cap = 1; cap <= settled + 1; ++cap) {
    EXPECT_EQ(pass_flops(cap), std::min(cap, settled) * per_iteration) << "cap " << cap;
  }
}

/// A whole prompt shorter than one clustering window still flushes as a
/// single (small) cluster.
TEST(ClusterRepairEngine, ShortPromptTailStillClusters) {
  const auto params = planted_params();
  auto config = repair_engine_config();
  config.repair_refine_iterations = 0;
  HeadStream stream(params, Rng(derive_seed(80, "head")), 20);
  ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(80, "engine")));
  engine.observe_prefill_chunk(stream.keys().row_slice(0, 20),
                               stream.values().row_slice(0, 20), true);
  EXPECT_EQ(engine.sink_count(), 8);
  EXPECT_EQ(engine.centroid_store().cluster_count(), 1);
  EXPECT_EQ(engine.centroid_store().token_count(), 12);
}

/// Periodic decode repair folds decode-side cluster batches back into the
/// prompt's groups without disturbing selection invariants.
TEST(ClusterRepairEngine, PeriodicDecodeRepairRuns) {
  const auto params = planted_params();
  auto config = repair_engine_config();
  config.repair_refine_iterations = 10;
  config.repair_decode_interval = 16;  // one repair per decode flush
  HeadStream stream(params, Rng(derive_seed(81, "head")), 400);
  ClusterKVEngine engine(params.head_dim, config, Rng(derive_seed(81, "engine")));
  for (Index begin = 0; begin < 400; begin += 128) {
    const Index end = std::min<Index>(400, begin + 128);
    engine.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                 stream.values().row_slice(begin, end), end == 400);
  }
  const Index after_prefill = engine.repair_passes();
  for (Index s = 0; s < 32; ++s) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    engine.observe_decode(stream.keys().row(last), stream.values().row(last));
    const auto sel = engine.select(stream.query(s), 96);
    EXPECT_LE(static_cast<Index>(sel.indices.size()), 96);
    EXPECT_TRUE(std::is_sorted(sel.indices.begin(), sel.indices.end()));
  }
  EXPECT_GE(engine.repair_passes(), after_prefill + 1);
  // Every token stays covered: sinks + clusters + pending tile the context.
  EXPECT_EQ(engine.centroid_store().token_count() + engine.sink_count() +
                engine.pending_count(),
            engine.context_size());
}

}  // namespace
}  // namespace ckv
