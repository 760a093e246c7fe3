// Grouped-query attention (GQA) support: query-head groups share one KV
// head and one selection — the regime of Llama-3.1-8B (8 KV heads serving
// 32 query heads), which the paper's performance evaluation uses.
#include <gtest/gtest.h>

#include "baselines/full_kv.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "core/clusterkv_engine.hpp"
#include "model/decode_engine.hpp"
#include "model/procedural.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

ProceduralParams gqa_params() {
  ProceduralParams p;
  p.head_dim = 64;
  p.queries_per_kv = 4;
  return p;
}

SimShape gqa_shape() {
  SimShape s;
  s.num_layers = 1;
  s.num_heads = 2;
  s.head_dim = 64;
  s.queries_per_kv = 4;
  return s;
}

ClusterKVConfig fast_ckv() {
  ClusterKVConfig c;
  c.tokens_per_cluster = 40;
  c.decode_interval = 32;
  return c;
}

TEST(GqaHeadStream, SubQueriesShareFocusButDiffer) {
  HeadStream stream(gqa_params(), Rng(1), 400);
  const auto q0 = stream.query(0, 0);
  const auto q1 = stream.query(0, 1);
  ASSERT_EQ(q0.size(), q1.size());
  // Different noise: not identical.
  EXPECT_GT(squared_l2_distance(q0, q1), 1e-6);
  // Shared focus: strongly correlated directions.
  EXPECT_GT(cosine_similarity(q0, q1), 0.6);
}

TEST(GqaHeadStream, SubQueryMemoizationStable) {
  HeadStream stream(gqa_params(), Rng(2), 100);
  const auto first = stream.query(3, 2);
  const auto again = stream.query(3, 2);
  EXPECT_EQ(first, again);
}

TEST(GqaHeadStream, SubQueryRangeValidated) {
  HeadStream stream(gqa_params(), Rng(3), 50);
  EXPECT_THROW(stream.query(0, 4), std::invalid_argument);
  EXPECT_THROW(stream.query(0, -1), std::invalid_argument);
}

TEST(GqaHeadStream, DefaultGroupSizeOneUnchanged) {
  ProceduralParams p;
  p.head_dim = 32;
  HeadStream stream(p, Rng(4), 50);
  EXPECT_NO_THROW(stream.query(0));
  EXPECT_THROW(stream.query(0, 1), std::invalid_argument);
}

TEST(GqaDecodeEngine, FullKVPerfectForEveryGroupMember) {
  ProceduralContextModel model(gqa_shape(), gqa_params(), 5, 400);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 0;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  engine.run_prefill();
  const auto step = engine.decode_step(0);
  EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
  // Every group member's attention mass lies in the shared selection.
  EXPECT_NEAR(step.mean_coverage, 1.0, 1e-6);
}

TEST(GqaDecodeEngine, SharedSelectionServesTheGroup) {
  ProceduralContextModel model(gqa_shape(), gqa_params(), 6, 2048);
  DecodeEngineConfig config;
  config.budget = 256;
  config.full_attention_layers = 0;
  DecodeEngine engine(model, make_clusterkv_factory(fast_ckv(), 7), config);
  engine.run_prefill();
  Index selected_total = 0;
  for (Index s = 0; s < 6; ++s) {
    const auto step = engine.decode_step(s);
    selected_total += step.tokens_selected;
  }
  // One selection per KV head per step (not per query head): 2 heads x
  // budget 256 x 6 steps.
  EXPECT_EQ(selected_total, 2 * 256 * 6);
  // The shared selection still captures the group's attention.
  EXPECT_GT(engine.coverage_stat().mean(), 0.3);
}

TEST(GqaDecodeEngine, GroupSelectionBeatsStaticWindow) {
  ProceduralContextModel m1(gqa_shape(), gqa_params(), 8, 2048);
  DecodeEngineConfig config;
  config.budget = 256;
  config.full_attention_layers = 0;
  DecodeEngine ckv(m1, make_clusterkv_factory(fast_ckv(), 9), config);
  ckv.run_prefill();

  ProceduralContextModel m2(gqa_shape(), gqa_params(), 8, 2048);
  DecodeEngine window(m2, make_streaming_llm_factory(), config);
  window.run_prefill();

  for (Index s = 0; s < 8; ++s) {
    ckv.decode_step(s);
    window.decode_step(s);
  }
  EXPECT_GT(ckv.coverage_stat().mean(), window.coverage_stat().mean());
}

TEST(GqaDecodeEngine, LargerGroupsDiluteSelectionQuality) {
  // Property: a selection shared by more query heads fits each one less
  // well — recall cannot improve as the group grows (same budget).
  double previous = 1.1;
  for (const Index group : {1, 4, 8}) {
    SimShape shape = gqa_shape();
    shape.queries_per_kv = group;
    ProceduralParams params = gqa_params();
    params.queries_per_kv = group;
    ProceduralContextModel model(shape, params, 10, 2048);
    DecodeEngineConfig config;
    config.budget = 256;
    config.full_attention_layers = 0;
    DecodeEngine engine(model, make_clusterkv_factory(fast_ckv(), 11), config);
    engine.run_prefill();
    for (Index s = 0; s < 6; ++s) {
      engine.decode_step(s);
    }
    EXPECT_LE(engine.recall_stat().mean(), previous + 0.05) << "group " << group;
    previous = engine.recall_stat().mean();
  }
}

}  // namespace
}  // namespace ckv
