// Cross-module integration and property tests: invariants that must hold
// across every method on shared contexts.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/full_kv.hpp"
#include "baselines/h2o.hpp"
#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "core/clusterkv_engine.hpp"
#include "metrics/metrics.hpp"
#include "model/decode_engine.hpp"
#include "model/procedural.hpp"
#include "tensor/softmax.hpp"
#include "tensor/topk.hpp"

namespace ckv {
namespace {

ProceduralParams params64() {
  ProceduralParams p;
  p.head_dim = 64;
  return p;
}

ClusterKVConfig fast_ckv() {
  ClusterKVConfig c;
  c.tokens_per_cluster = 40;
  c.decode_interval = 32;
  return c;
}

struct MethodUnderTest {
  std::string name;
  SelectorFactory factory;
  bool needs_feedback = false;
};

std::vector<MethodUnderTest> all_methods() {
  H2OConfig h2o;
  h2o.budget = 256;
  return {
      {"Full KV", make_full_kv_factory()},
      {"ClusterKV", make_clusterkv_factory(fast_ckv(), 3)},
      {"Quest", make_quest_factory()},
      {"InfiniGen", make_infinigen_factory()},
      {"H2O", make_h2o_factory(h2o), true},
      {"StreamingLLM", make_streaming_llm_factory()},
  };
}

class EveryMethod : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EveryMethod, SelectionWithinContextAndBudgetContract) {
  const auto method = all_methods()[GetParam()];
  auto stream = HeadStream(params64(), Rng(21), 600);
  auto selector = method.factory(0, 0, 64);
  selector->observe_prefill(stream.keys(), stream.values());
  for (Index s = 0; s < 8; ++s) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    selector->observe_decode(stream.keys().row(last), stream.values().row(last));
    const auto q = stream.query(s);
    const auto sel = selector->select(q, 256);
    // Indices are valid, sorted, unique.
    EXPECT_TRUE(std::is_sorted(sel.indices.begin(), sel.indices.end()));
    EXPECT_EQ(std::adjacent_find(sel.indices.begin(), sel.indices.end()),
              sel.indices.end());
    for (const Index t : sel.indices) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, stream.size());
    }
    if (method.needs_feedback) {
      std::vector<float> probs(sel.indices.size(),
                               1.0f / static_cast<float>(sel.indices.size()));
      selector->observe_attention(sel.indices, probs);
    }
  }
}

TEST_P(EveryMethod, DeterministicAcrossRuns) {
  const auto method = all_methods()[GetParam()];
  std::vector<Index> first;
  for (int run = 0; run < 2; ++run) {
    auto stream = HeadStream(params64(), Rng(22), 400);
    auto selector = method.factory(0, 0, 64);
    selector->observe_prefill(stream.keys(), stream.values());
    const auto q = stream.query(0);
    const auto sel = selector->select(q, 128);
    if (run == 0) {
      first = sel.indices;
    } else {
      EXPECT_EQ(first, sel.indices) << method.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, EveryMethod, ::testing::Range<std::size_t>(0, 6));

struct ReselectRecall {
  double clusterkv = 0.0;
  double window = 0.0;
};

/// Mean recall of one pinned topic over the late decode steps, for
/// ClusterKV and StreamingLLM at budget 256 on one 2,000-token stream.
ReselectRecall reselect_recall(std::uint64_t stream_seed, std::uint64_t engine_seed) {
  ProceduralParams p = params64();
  HeadStream stream(p, Rng(stream_seed), 2000);

  ClusterKVEngine ckv(64, fast_ckv(), Rng(engine_seed));
  StreamingLLMSelector window(StreamingLLMConfig{});
  ckv.observe_prefill(stream.keys(), stream.values());
  window.observe_prefill(stream.keys(), stream.values());

  // Pin focus to one topic for late steps only.
  const Index target_topic = stream.topic_of(1000);
  std::vector<Index> topic_positions;
  for (Index t = p.sink_tokens; t < 2000; ++t) {
    if (stream.topic_of(t) == target_topic) {
      topic_positions.push_back(t);
    }
  }
  EXPECT_GT(topic_positions.size(), 5u);
  stream.pin_focus(20, 24, topic_positions);

  ReselectRecall total;
  Index scored_steps = 0;
  for (Index s = 0; s < 24; ++s) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    ckv.observe_decode(stream.keys().row(last), stream.values().row(last));
    window.observe_decode(stream.keys().row(last), stream.values().row(last));
    if (s < 20) {
      continue;
    }
    const auto q = stream.query(s);
    total.clusterkv += recall_of(ckv.select(q, 256).indices, topic_positions);
    total.window += recall_of(window.select(q, 256).indices, topic_positions);
    ++scored_steps;
  }
  total.clusterkv /= static_cast<double>(scored_steps);
  total.window /= static_cast<double>(scored_steps);
  return total;
}

TEST(Integration, RecallableMethodsCanReselectEvictedImportance) {
  // A token unselected for many steps must be selectable again by
  // recallable methods when importance returns (Fig. 1 d vs b). One
  // stream can hide its topic from the clustering, so the claim is a rate
  // over a fixed grid (stream seeds 1-10 x engine seeds 1-3): ClusterKV
  // is ahead in 27 of the 30 runs, with mean recall 0.508 to the window's
  // 0.062.
  int clusterkv_ahead = 0;
  double clusterkv_sum = 0.0;
  double window_sum = 0.0;
  int runs = 0;
  for (std::uint64_t stream_seed = 1; stream_seed <= 10; ++stream_seed) {
    for (std::uint64_t engine_seed = 1; engine_seed <= 3; ++engine_seed) {
      const auto recall = reselect_recall(stream_seed, engine_seed);
      clusterkv_ahead += recall.clusterkv > recall.window ? 1 : 0;
      clusterkv_sum += recall.clusterkv;
      window_sum += recall.window;
      ++runs;
    }
  }
  EXPECT_GE(clusterkv_ahead, runs * 4 / 5);
  EXPECT_GT(clusterkv_sum, window_sum);
  EXPECT_GT(clusterkv_sum / runs, 0.3);
}

TEST(Integration, ClusterKVMatchesFullKVWhenBudgetCoversContext) {
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 2;
  shape.head_dim = 64;
  ProceduralContextModel model(shape, params64(), 24, 500);
  DecodeEngineConfig config;
  config.budget = 4096;  // far above context
  config.full_attention_layers = 0;
  DecodeEngine engine(model, make_clusterkv_factory(fast_ckv(), 6), config);
  engine.run_prefill();
  for (Index s = 0; s < 6; ++s) {
    const auto step = engine.decode_step(s);
    // Budget covers the whole context, so selection is exact: every head
    // attends every token and the step reports vacuously lossless quality.
    EXPECT_EQ(step.tokens_selected,
              shape.num_layers * shape.num_heads * (500 + s + 1));
    EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
    EXPECT_DOUBLE_EQ(step.mean_coverage, 1.0);
  }
  // Such steps contribute no recall sample to the engine aggregates (they
  // would only dilute comparisons — see DecodeEngine::recall_stat), which
  // is itself part of the contract; the aggregate accessors then report
  // the vacuous 1.0.
  EXPECT_EQ(engine.recall_steps(), 0);
  EXPECT_EQ(engine.recall_stat().count(), 0);
  EXPECT_DOUBLE_EQ(engine.mean_recall(), 1.0);
  EXPECT_DOUBLE_EQ(engine.mean_coverage(), 1.0);
}

TEST(Integration, CoverageOrderingOnSharedContext) {
  // The paper's accuracy ordering, as a statistical property of the
  // pipeline: ClusterKV captures more attention mass than Quest and the
  // static window at equal budget.
  const Index budget = 512;
  std::map<std::string, double> coverage;
  for (const auto& method : all_methods()) {
    if (method.name == "H2O" || method.name == "Full KV") {
      continue;
    }
    SimShape shape;
    shape.num_layers = 1;
    shape.num_heads = 2;
    shape.head_dim = 64;
    ProceduralContextModel model(shape, params64(), 25, 4096);
    DecodeEngineConfig config;
    config.budget = budget;
    config.full_attention_layers = 0;
    DecodeEngine engine(model, method.factory, config);
    engine.run_prefill();
    for (Index s = 0; s < 10; ++s) {
      engine.decode_step(s);
    }
    coverage[method.name] = engine.coverage_stat().mean();
  }
  EXPECT_GT(coverage["ClusterKV"], coverage["Quest"]);
  EXPECT_GT(coverage["ClusterKV"], coverage["StreamingLLM"]);
}

TEST(Integration, FetchTrafficDropsWithCacheDepth) {
  // §IV-D: a deeper cluster cache can only reduce slow-tier fetches.
  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (const Index depth : {0, 1, 2}) {
    auto config = fast_ckv();
    config.cache_depth = depth;
    SimShape shape;
    shape.num_layers = 1;
    shape.num_heads = 2;
    shape.head_dim = 64;
    ProceduralContextModel model(shape, params64(), 26, 4096);
    DecodeEngineConfig engine_config;
    engine_config.budget = 512;
    engine_config.full_attention_layers = 0;
    DecodeEngine engine(model, make_clusterkv_factory(config, 7), engine_config);
    engine.run_prefill();
    for (Index s = 0; s < 12; ++s) {
      engine.decode_step(s);
    }
    EXPECT_LE(engine.total_fetched(), previous);
    previous = engine.total_fetched();
  }
}

}  // namespace
}  // namespace ckv
