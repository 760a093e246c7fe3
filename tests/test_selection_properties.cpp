// Property-based tests (parameterized fuzz) of the selection, indexing,
// caching and prefill-flush invariants the ClusterKV pipeline relies on,
// plus the serving residency sweep: randomized admit/prefill/decode/
// preempt/repair/prefetch schedules asserting the fast-tier budget and
// sink-residency invariants at every tick. Runs under `ctest -L
// properties` with this fixed seed set in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "baselines/quest.hpp"
#include "core/cluster_cache.hpp"
#include "core/centroid_store.hpp"
#include "core/clusterkv_engine.hpp"
#include "core/selector_index.hpp"
#include "model/procedural.hpp"
#include "serve/batch_scheduler.hpp"
#include "tensor/rng.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

class SelectClustersFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectClustersFuzz, GreedyPrefixMinimalAndOrdered) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const Index n = rng.uniform_int(1, 60);
    std::vector<float> scores(static_cast<std::size_t>(n));
    std::vector<Index> sizes(static_cast<std::size_t>(n));
    Index total = 0;
    for (Index c = 0; c < n; ++c) {
      scores[static_cast<std::size_t>(c)] = static_cast<float>(rng.normal());
      sizes[static_cast<std::size_t>(c)] = rng.uniform_int(1, 50);
      total += sizes[static_cast<std::size_t>(c)];
    }
    const Index budget = rng.uniform_int(0, total + 20);
    const auto sel = select_clusters(scores, sizes, budget);

    // (1) Selected clusters are in non-ascending score order.
    for (std::size_t i = 0; i + 1 < sel.clusters.size(); ++i) {
      EXPECT_GE(scores[static_cast<std::size_t>(sel.clusters[i])],
                scores[static_cast<std::size_t>(sel.clusters[i + 1])]);
    }
    // (2) No duplicates.
    std::set<Index> unique(sel.clusters.begin(), sel.clusters.end());
    EXPECT_EQ(unique.size(), sel.clusters.size());
    // (3) Coverage: the selection reaches the budget or exhausts clusters.
    Index covered = 0;
    for (const Index c : sel.clusters) {
      covered += sizes[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(covered, sel.total_tokens);
    if (budget > 0) {
      EXPECT_TRUE(covered >= std::min<Index>(budget, total));
    }
    // (4) Minimality: dropping the last selected cluster falls below budget.
    if (budget > 0 && !sel.clusters.empty()) {
      EXPECT_LT(covered - sizes[static_cast<std::size_t>(sel.clusters.back())],
                budget);
    }
    // (5) Trim flag is exact.
    EXPECT_EQ(sel.trimmed, covered > budget && budget > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectClustersFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class ClusterCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterCacheFuzz, MatchesNaiveReferenceModel) {
  Rng rng(GetParam());
  const Index depth = rng.uniform_int(0, 3);
  ClusterCache cache(depth);

  // Reference: a deque of token sets.
  std::vector<std::unordered_set<Index>> reference_window;

  for (int step = 0; step < 60; ++step) {
    const Index clusters = rng.uniform_int(1, 5);
    // Each cluster's tokens, ascending, in cluster order: the flat
    // position list select() hands the cache.
    std::vector<Index> selected;
    std::unordered_set<Index> requested;
    for (Index c = 0; c < clusters; ++c) {
      const Index cluster_id = rng.uniform_int(0, 9);
      std::vector<Index> tokens;
      const Index count = rng.uniform_int(1, 6);
      for (Index t = 0; t < count; ++t) {
        const Index token = cluster_id * 100 + rng.uniform_int(0, 19);
        if (requested.insert(token).second) {
          tokens.push_back(token);
        }
      }
      std::sort(tokens.begin(), tokens.end());
      selected.insert(selected.end(), tokens.begin(), tokens.end());
    }

    std::unordered_set<Index> resident;
    for (const auto& entry : reference_window) {
      resident.insert(entry.begin(), entry.end());
    }
    Index expected_hits = 0;
    Index expected_misses = 0;
    for (const Index t : selected) {
      if (resident.contains(t)) {
        ++expected_hits;
      } else {
        ++expected_misses;
      }
    }

    const auto result = cache.step(selected);
    EXPECT_EQ(result.hits, expected_hits) << "step " << step;
    EXPECT_EQ(result.misses, expected_misses) << "step " << step;
    EXPECT_EQ(static_cast<Index>(result.missing_tokens.size()), expected_misses);

    reference_window.insert(reference_window.begin(), requested);
    while (static_cast<Index>(reference_window.size()) > depth) {
      reference_window.pop_back();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterCacheFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

class QuestBoundFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuestBoundFuzz, UpperBoundHoldsOnRandomData) {
  // The page-score upper bound must hold for arbitrary key/query data,
  // not just procedural streams.
  Rng rng(GetParam());
  const Index dim = 16;
  QuestSelector quest(dim, QuestConfig{.page_size = 8});
  Matrix keys(64, dim);
  Matrix values(64, dim);
  rng.fill_normal(keys.flat(), 0.0, 2.0);
  rng.fill_normal(values.flat(), 0.0, 1.0);
  quest.observe_prefill(keys, values);

  KVStore reference(dim);
  reference.append_block(keys, values);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> query(static_cast<std::size_t>(dim));
    rng.fill_normal(query, 0.0, 3.0);
    const auto scores = reference.attention_scores(query);
    for (Index page = 0; page < quest.page_count(); ++page) {
      const double bound = quest.page_score(query, page);
      for (Index t = page * 8; t < (page + 1) * 8; ++t) {
        EXPECT_GE(bound + 1e-4, scores[static_cast<std::size_t>(t)]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuestBoundFuzz, ::testing::Values(21, 22, 23, 24));

class CentroidStoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CentroidStoreFuzz, PartitionInvariantUnderIncrementalAdds) {
  // Incremental cluster additions must always leave a perfect partition of
  // all registered token positions.
  Rng rng(GetParam());
  CentroidStore store(8);
  Index offset = 0;
  for (int batch = 0; batch < 8; ++batch) {
    const Index clusters = rng.uniform_int(1, 5);
    const Index tokens = rng.uniform_int(1, 40);
    Matrix centroids(clusters, 8);
    rng.fill_normal(centroids.flat(), 0.0, 1.0);
    std::vector<Index> labels(static_cast<std::size_t>(tokens));
    for (auto& l : labels) {
      l = rng.uniform_int(0, clusters - 1);
    }
    store.add_clusters(centroids, labels, offset);
    offset += tokens;
  }
  std::set<Index> seen;
  for (Index c = 0; c < store.cluster_count(); ++c) {
    Index previous = -1;
    for (const Index t : store.tokens_of(c)) {
      EXPECT_TRUE(seen.insert(t).second) << "token in two clusters";
      EXPECT_GT(t, previous) << "tokens not ascending within cluster";
      previous = t;
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), offset);
  EXPECT_EQ(store.token_count(), offset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentroidStoreFuzz,
                         ::testing::Values(31, 32, 33, 34, 35));

class GatherTrimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatherTrimFuzz, NeverExceedsBudgetAndPreservesClusterOrder) {
  Rng rng(GetParam());
  CentroidStore store(4);
  const Index clusters = 6;
  Matrix centroids(clusters, 4);
  rng.fill_normal(centroids.flat(), 0.0, 1.0);
  std::vector<Index> labels;
  for (Index t = 0; t < 120; ++t) {
    labels.push_back(rng.uniform_int(0, clusters - 1));
  }
  store.add_clusters(centroids, labels, 0);

  for (int trial = 0; trial < 30; ++trial) {
    std::vector<float> scores(clusters);
    for (auto& s : scores) {
      s = static_cast<float>(rng.normal());
    }
    const Index budget = rng.uniform_int(0, 140);
    const auto sel = select_clusters(scores, store.cluster_sizes(), budget);
    const auto indexed = gather_selected_tokens(store, sel, budget);
    EXPECT_LE(static_cast<Index>(indexed.token_positions.size()), budget);
    // Budget is met exactly whenever enough tokens were selected.
    if (sel.total_tokens >= budget) {
      EXPECT_EQ(static_cast<Index>(indexed.token_positions.size()), budget);
    }
    // per_cluster breakdown flattens to token_positions.
    std::vector<Index> flattened;
    for (const auto& [cluster, tokens] : indexed.per_cluster) {
      flattened.insert(flattened.end(), tokens.begin(), tokens.end());
    }
    EXPECT_EQ(flattened, indexed.token_positions);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatherTrimFuzz, ::testing::Values(41, 42, 43, 44));

// One flush rule, two readers: the engine flushes prefill chunks through
// prefill_flush, and the scheduler bills the post-prefill repair pass from
// prefill_flush_plan's replay of it. Over random prompt lengths, chunk
// sizes (0 = one whole-prompt chunk), cluster granularities and sink
// counts, an engine fed the prompt in those chunks must do repair work
// exactly when the plan counts two or more clustering batches.
class PrefillFlushPlanFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefillFlushPlanFuzz, RepairWorkMatchesPlannedBatches) {
  constexpr Index kDim = 8;
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    ClusterKVConfig config;
    config.sink_tokens = rng.uniform_int(0, 24);
    config.tokens_per_cluster = rng.uniform_int(4, 48);
    config.kmeans_max_iterations = 3;
    const Index prompt_len = rng.uniform_int(1, 320);
    const Index chunk = rng.bernoulli(0.25) ? 0 : rng.uniform_int(1, 128);
    Matrix keys(prompt_len, kDim);
    Matrix values(prompt_len, kDim);
    rng.fill_normal(keys.flat(), 0.0, 1.0);
    rng.fill_normal(values.flat(), 0.0, 1.0);

    ClusterKVEngine engine(kDim, config, Rng(derive_seed(GetParam(), "flush-plan")));
    const Index step = chunk > 0 ? chunk : prompt_len;
    for (Index begin = 0; begin < prompt_len; begin += step) {
      const Index end = std::min(begin + step, prompt_len);
      engine.observe_prefill_chunk(keys.row_slice(begin, end),
                                   values.row_slice(begin, end), end == prompt_len);
    }
    const Index batches = prefill_flush_plan(config, prompt_len, chunk);
    EXPECT_EQ(engine.repair_passes(), batches >= 2 ? 1 : 0);
    EXPECT_EQ(engine.repair_flops() > 0, batches >= 2)
        << "L " << prompt_len << ", chunk " << chunk << ", tokens_per_cluster "
        << config.tokens_per_cluster << ", sinks " << config.sink_tokens;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefillFlushPlanFuzz,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

// Serving residency sweep: a randomized schedule — random session mix,
// chunk sizes, budgets, overcommit, repair cadence, prefetch depth, plus
// externally injected preemptions and prefetch cancels (including
// mid-prefill and mid-fetch) — must keep the scheduler's contract at
// every tick boundary: global footprint (resident + in-flight) within the
// budget, the O(1) ledger in exact agreement with a re-sum over sessions
// and stores, attention sinks never offloaded, and every cluster-cache
// window token fast-resident in its head's store. test_serve.cpp
// spot-checks these on hand-picked schedules; this sweep searches for
// counterexamples.
//
// The whole schedule runs twice, serial (1 worker) and fanned out onto
// 4 pool workers, with the injected events re-derived from the same seed
// — the invariants must hold tick-for-tick in both runs, and the retired
// SessionRecords must come out bit-identical (the parallel tick's
// byte-identity contract under adversarial mid-run preemption, repair
// and prefetch-cancellation injection).
class ServingResidencyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingResidencyFuzz, BudgetAndSinkInvariantsHoldUnderRandomSchedules) {
  WorkerGuard worker_guard;
  std::vector<SessionRecord> serial_records;
  for (const int workers : {1, 4}) {
    set_parallel_workers(workers);
    Rng rng(GetParam());

    SessionConfig session;
    session.shape.num_layers = 1;
    session.shape.num_heads = 2;
    session.shape.head_dim = 32;
    session.params.head_dim = 32;
    session.params.num_topics = 16;
    session.engine.budget = rng.uniform_int(24, 64);
    session.engine.full_attention_layers = 0;

    ClusterKVConfig ckv;
    ckv.sink_tokens = rng.uniform_int(0, 8);
    ckv.tokens_per_cluster = rng.uniform_int(8, 24);
    ckv.decode_interval = rng.uniform_int(4, 16);
    ckv.decode_clusters = 2;
    ckv.cache_depth = rng.uniform_int(0, 2);
    ckv.repair_refine_iterations = rng.uniform_int(0, 4);
    ckv.repair_decode_interval = rng.uniform_int(0, 5);
    ckv.prefetch_clusters = rng.uniform_int(0, 4);
    ckv.prefetch_prior_decay = rng.uniform(0.0, 0.95);

    BatchSchedulerConfig config;
    config.prefill_chunk_tokens = rng.bernoulli(0.2) ? 0 : rng.uniform_int(16, 96);
    config.admission_overcommit = rng.uniform(1.0, 2.0);

    // Most schedules also run under an injected fault plan: transient
    // demand-fetch failures (retried, sometimes exhausted into degraded
    // resident-only steps), mid-decode aborts and occasional queue
    // shedding, interleaved with the external preemption/cancel injection
    // below. The invariants must hold through all of it. Wire faults and
    // brownouts stay off — this fuzz does not model the transfer engine.
    if (rng.bernoulli(0.7)) {
      FaultPlan plan;
      plan.enabled = true;
      plan.seed = derive_seed(GetParam(), "fuzz/faults");
      plan.fetch_failure_rate = rng.uniform(0.05, 0.5);
      plan.fetch_max_retries = rng.uniform_int(0, 3);
      plan.retry_backoff_ms = rng.uniform(0.1, 1.0);
      plan.fetch_deadline_ms = rng.uniform(0.5, 8.0);
      plan.abort_rate = rng.uniform(0.0, 0.08);
      plan.shed_wait_ms = rng.bernoulli(0.3) ? rng.uniform(500.0, 5000.0) : 0.0;
      config.fault_plan = plan;
    }

    const Index sessions = rng.uniform_int(3, 5);
    std::vector<ServeRequest> trace;
    Index longest_context = 0;
    for (Index i = 0; i < sessions; ++i) {
      ServeRequest request;
      request.id = i;
      request.arrival_ms = rng.uniform(0.0, 50.0) * static_cast<double>(i);
      request.prompt_len = rng.uniform_int(60, 400);
      request.decode_len = rng.uniform_int(3, 8);
      request.seed = derive_seed(GetParam(), "fuzz/req/" + std::to_string(i));
      longest_context = std::max(longest_context, request.prompt_len + request.decode_len);
      trace.push_back(request);
    }
    std::sort(trace.begin(), trace.end(),
              [](const ServeRequest& a, const ServeRequest& b) {
                return a.arrival_ms < b.arrival_ms;
              });

    // Budget between one and two of the largest projected working sets:
    // tight enough to force queueing and preemption, always admissible.
    const Index floor_tokens = std::min<Index>(
        longest_context,
        ckv.sink_tokens + std::max<Index>(ckv.tokens_per_cluster,
                                          ckv.decode_interval +
                                              ckv.cache_depth * session.engine.budget));
    const std::int64_t projected = static_cast<std::int64_t>(floor_tokens) *
                                   session_token_bytes(session) *
                                   session.shape.total_heads();
    config.fast_tier_budget_bytes =
        projected + static_cast<std::int64_t>(rng.uniform(0.0, 1.0) *
                                              static_cast<double>(projected)) + 1;

    const LatencyModel latency(HardwareModel::ada6000(), ModelConfig::llama31_8b());
    BatchScheduler scheduler(
        trace, ServeMethod{LatencyModel::Method::kClusterKV, ckv, GetParam()}, session,
        latency, config);

    while (scheduler.tick()) {
      // External events the scheduler does not control: a preemption or a
      // speculation cancel can land at any point of any lifecycle state.
      if (!scheduler.running().empty()) {
        const auto victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<Index>(scheduler.running().size()) - 1));
        if (rng.bernoulli(0.15)) {
          scheduler.running()[victim]->release_fast_tier();
        } else if (rng.bernoulli(0.15)) {
          scheduler.running()[victim]->cancel_prefetches();
        }
      }

      // (1) Global footprint — resident plus in-flight — within budget.
      EXPECT_LE(scheduler.fast_tier_bytes(), config.fast_tier_budget_bytes);
      // (2) The O(1) ledger agrees with an independent re-sum.
      std::int64_t resident = 0;
      std::int64_t reserved = 0;
      for (const auto& running : scheduler.running()) {
        resident += running->fast_resident_bytes();
        auto& bank = running->engine().selectors();
        for (Index l = 0; l < bank.num_layers(); ++l) {
          for (Index h = 0; h < bank.num_heads(); ++h) {
            const auto* engine = dynamic_cast<const ClusterKVEngine*>(&bank.at(l, h));
            ASSERT_NE(engine, nullptr);
            reserved += engine->tiered_store().in_flight_bytes();
            // (3) Sinks are never offloaded, in any state, mid-anything.
            for (Index s = 0; s < engine->sink_count(); ++s) {
              EXPECT_TRUE(engine->tiered_store().is_fast_resident(s))
                  << "sink " << s << " offloaded (seed " << GetParam() << ")";
            }
            // (4) Every window token is fast-resident, so the store alone
            // can resolve in-flight prefetches: none is ever a window hit.
            for (const Index p : engine->cache().resident_tokens()) {
              EXPECT_TRUE(engine->tiered_store().is_fast_resident(p))
                  << "window token " << p << " not fast (seed " << GetParam() << ")";
            }
          }
        }
      }
      EXPECT_EQ(scheduler.ledger().bytes(), resident);
      EXPECT_EQ(scheduler.ledger().reserved_bytes(), reserved);
    }
    // Conservation at end of run: every offered request retired (aborted
    // sessions retire through the normal path) or was counted shed; the
    // ledger fully unwinds — no stranded residency or in-flight entries.
    EXPECT_EQ(static_cast<std::int64_t>(scheduler.finished_count()) +
                  scheduler.metrics().shed_sessions_total(),
              static_cast<std::int64_t>(sessions));
    EXPECT_EQ(scheduler.ledger().bytes(), 0);
    EXPECT_EQ(scheduler.ledger().reserved_bytes(), 0);

    // Worker-count independence: the seeded injection schedule is the same
    // in both runs, so the retired records must match bit for bit.
    const auto& records = scheduler.metrics().records();
    if (workers == 1) {
      serial_records = records;
    } else {
      ASSERT_EQ(serial_records.size(), records.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(serial_records[i].id, records[i].id) << i;
        EXPECT_EQ(serial_records[i].first_token_ms, records[i].first_token_ms) << i;
        EXPECT_EQ(serial_records[i].finish_ms, records[i].finish_ms) << i;
        EXPECT_EQ(serial_records[i].mean_recall, records[i].mean_recall) << i;
        EXPECT_EQ(serial_records[i].recall_steps, records[i].recall_steps) << i;
        EXPECT_EQ(serial_records[i].cache_hit_rate, records[i].cache_hit_rate) << i;
        EXPECT_EQ(serial_records[i].preemptions, records[i].preemptions) << i;
        EXPECT_EQ(serial_records[i].prefetch_hit_tokens,
                  records[i].prefetch_hit_tokens)
            << i;
        EXPECT_EQ(serial_records[i].prefetch_issued_tokens,
                  records[i].prefetch_issued_tokens)
            << i;
        EXPECT_EQ(serial_records[i].demand_fetched_tokens,
                  records[i].demand_fetched_tokens)
            << i;
        EXPECT_EQ(serial_records[i].aborted, records[i].aborted) << i;
        EXPECT_EQ(serial_records[i].degraded_steps, records[i].degraded_steps) << i;
        EXPECT_EQ(serial_records[i].fault_retries, records[i].fault_retries) << i;
        EXPECT_EQ(serial_records[i].fault_retry_ms, records[i].fault_retry_ms) << i;
        EXPECT_EQ(serial_records[i].dead_fetches, records[i].dead_fetches) << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingResidencyFuzz,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace ckv
