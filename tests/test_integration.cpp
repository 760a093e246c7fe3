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

TEST(Integration, RecallableMethodsCanReselectEvictedImportance) {
  // A token unselected for many steps must be selectable again by
  // recallable methods when importance returns (Fig. 1 d vs b).
  ProceduralParams p = params64();
  HeadStream stream(p, Rng(23), 2000);

  ClusterKVEngine ckv(64, fast_ckv(), Rng(5));
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
  ASSERT_GT(topic_positions.size(), 5u);
  stream.pin_focus(20, 24, topic_positions);

  double ckv_total = 0.0;
  double window_total = 0.0;
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
    const auto ckv_sel = ckv.select(q, 256);
    const auto window_sel = window.select(q, 256);
    ckv_total += recall_of(
        ckv_sel.indices,
        std::vector<Index>(topic_positions.begin(), topic_positions.end()));
    window_total += recall_of(
        window_sel.indices,
        std::vector<Index>(topic_positions.begin(), topic_positions.end()));
    ++scored_steps;
  }
  EXPECT_GT(ckv_total / scored_steps, window_total / scored_steps);
  EXPECT_GT(ckv_total / scored_steps, 0.3);
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
