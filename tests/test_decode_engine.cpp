#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/full_kv.hpp"
#include "baselines/h2o.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "core/clusterkv_engine.hpp"
#include "model/decode_engine.hpp"
#include "tensor/softmax.hpp"

namespace ckv {
namespace {

SimShape small_shape() {
  SimShape s;
  s.num_layers = 2;
  s.num_heads = 2;
  s.head_dim = 32;
  return s;
}

ProceduralParams small_params() {
  ProceduralParams p;
  p.head_dim = 32;
  p.num_topics = 16;
  return p;
}

ClusterKVConfig small_ckv() {
  ClusterKVConfig c;
  c.sink_tokens = 8;
  c.tokens_per_cluster = 40;
  c.decode_interval = 16;
  c.decode_clusters = 2;
  return c;
}

TEST(DecodeEngine, FullKVIsPerfect) {
  ProceduralContextModel model(small_shape(), small_params(), 1, 400);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  engine.run_prefill();
  for (Index s = 0; s < 4; ++s) {
    const auto step = engine.decode_step(s);
    EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
    EXPECT_NEAR(step.mean_coverage, 1.0, 1e-6);
  }
}

// Forwards every call to the wrapped selector; the wrappers below
// override what they change or observe.
class ForwardingSelector : public KVSelector {
 public:
  explicit ForwardingSelector(std::unique_ptr<KVSelector> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void observe_prefill(const Matrix& keys, const Matrix& values) override {
    inner_->observe_prefill(keys, values);
  }
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override {
    inner_->observe_decode(key, value);
  }
  SelectionResult select(std::span<const float> query, Index budget) override {
    return inner_->select(query, budget);
  }
  void observe_attention(std::span<const Index> indices,
                         std::span<const float> probabilities) override {
    inner_->observe_attention(indices, probabilities);
  }
  [[nodiscard]] Index context_size() const override { return inner_->context_size(); }

 private:
  std::unique_ptr<KVSelector> inner_;
};

// Lists every position of the wrapped selector's choice twice, the first
// copy in descending order.
class RepeatingSelector : public ForwardingSelector {
 public:
  using ForwardingSelector::ForwardingSelector;
  SelectionResult select(std::span<const float> query, Index budget) override {
    SelectionResult result = ForwardingSelector::select(query, budget);
    std::vector<Index> repeated(result.indices.rbegin(), result.indices.rend());
    repeated.insert(repeated.end(), result.indices.begin(), result.indices.end());
    result.indices = std::move(repeated);
    return result;
  }
};

// Recall@B has set semantics: a selector returning positions repeatedly
// and out of order recalls exactly what its sorted, repeat-free selection
// recalls.
TEST(DecodeEngine, RecallCountsRepeatedUnsortedSelectionsOnce) {
  ProceduralContextModel plain_model(small_shape(), small_params(), 5, 400);
  ProceduralContextModel repeated_model(small_shape(), small_params(), 5, 400);
  DecodeEngineConfig config;
  config.budget = 64;
  const auto inner = make_clusterkv_factory(small_ckv(), 9);
  DecodeEngine plain(plain_model, inner, config);
  DecodeEngine repeated(
      repeated_model,
      [&inner](Index layer, Index head, Index head_dim) -> std::unique_ptr<KVSelector> {
        return std::make_unique<RepeatingSelector>(inner(layer, head, head_dim));
      },
      config);
  plain.run_prefill();
  repeated.run_prefill();
  for (Index s = 0; s < 6; ++s) {
    const auto a = plain.decode_step(s);
    const auto b = repeated.decode_step(s);
    EXPECT_LT(a.mean_recall, 1.0);
    EXPECT_EQ(a.mean_recall, b.mean_recall) << "step " << s;
  }
}

// Keeps what the wrapped selector's last select() returned and what its
// last observe_attention() received.
class RecordingSelector : public ForwardingSelector {
 public:
  using ForwardingSelector::ForwardingSelector;
  SelectionResult select(std::span<const float> query, Index budget) override {
    SelectionResult result = ForwardingSelector::select(query, budget);
    selected = result.indices;
    return result;
  }
  void observe_attention(std::span<const Index> indices,
                         std::span<const float> probabilities) override {
    fed_indices.assign(indices.begin(), indices.end());
    fed_probabilities.assign(probabilities.begin(), probabilities.end());
    ForwardingSelector::observe_attention(indices, probabilities);
  }

  std::vector<Index> selected;
  std::vector<Index> fed_indices;
  std::vector<float> fed_probabilities;
};

// The oracle against a recomputation from the context model alone. The
// attention fed back is the softmax of sub-query 0's exact scores at the
// selected positions (every position on a full-attention layer); recall
// and coverage average |selected ∩ top-B| / B and the softmax mass of the
// selected positions over every selection-active head and group member.
TEST(DecodeEngine, ScoreStepMatchesIndependentRecomputation) {
  SimShape shape = small_shape();
  shape.queries_per_kv = 2;
  ProceduralContextModel model(shape, small_params(), 8, 300);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  config.attention_feedback = true;
  H2OConfig h2o;
  h2o.budget = config.budget;
  const auto inner = make_h2o_factory(h2o);
  DecodeEngine engine(
      model,
      [&inner](Index layer, Index head, Index head_dim) -> std::unique_ptr<KVSelector> {
        return std::make_unique<RecordingSelector>(inner(layer, head, head_dim));
      },
      config);
  engine.run_prefill();
  const Index b = config.budget;
  for (Index s = 0; s < 6; ++s) {
    SCOPED_TRACE(testing::Message() << "step " << s);
    const StepResult step = engine.decode_step(s);
    double recall_sum = 0.0;
    double coverage_sum = 0.0;
    Index samples = 0;
    for (Index l = 0; l < shape.num_layers; ++l) {
      const bool selection_active = l >= config.full_attention_layers;
      for (Index h = 0; h < shape.num_heads; ++h) {
        SCOPED_TRACE(testing::Message() << "layer " << l << " head " << h);
        HeadStream& stream = model.head(l, h);
        const auto& recorder =
            dynamic_cast<const RecordingSelector&>(engine.selectors().at(l, h));
        const Index n = stream.size();
        ASSERT_GT(n, b);
        std::vector<Index> selected(static_cast<std::size_t>(n));
        std::iota(selected.begin(), selected.end(), Index{0});
        if (selection_active) {
          selected = recorder.selected;
        }

        const auto scores = stream.attention_scores(stream.query(s, 0));
        std::vector<float> fed(selected.size());
        for (std::size_t i = 0; i < selected.size(); ++i) {
          fed[i] = scores[static_cast<std::size_t>(selected[i])];
        }
        softmax_in_place(fed);
        EXPECT_EQ(recorder.fed_indices, selected);
        EXPECT_EQ(recorder.fed_probabilities, fed);
        if (!selection_active) {
          continue;
        }

        for (Index sub = 0; sub < shape.queries_per_kv; ++sub) {
          std::vector<float> probs = stream.attention_scores(stream.query(s, sub));
          // Top-B by score, ties toward the smaller position.
          const auto higher = [&probs](Index x, Index y) {
            const float px = probs[static_cast<std::size_t>(x)];
            const float py = probs[static_cast<std::size_t>(y)];
            return px > py || (px == py && x < y);
          };
          std::vector<Index> truth(static_cast<std::size_t>(n));
          std::iota(truth.begin(), truth.end(), Index{0});
          std::partial_sort(truth.begin(), truth.begin() + b, truth.end(), higher);
          Index overlap = 0;
          for (Index i = 0; i < b; ++i) {
            const Index t = truth[static_cast<std::size_t>(i)];
            if (std::find(selected.begin(), selected.end(), t) != selected.end()) {
              ++overlap;
            }
          }
          recall_sum += static_cast<double>(overlap) / static_cast<double>(b);
          softmax_in_place(probs);
          double mass = 0.0;
          for (const Index t : selected) {
            mass += static_cast<double>(probs[static_cast<std::size_t>(t)]);
          }
          coverage_sum += mass;
          ++samples;
        }
      }
    }
    ASSERT_EQ(samples, shape.num_heads * shape.queries_per_kv);
    EXPECT_NEAR(step.mean_recall, recall_sum / static_cast<double>(samples), 1e-12);
    EXPECT_NEAR(step.mean_coverage, coverage_sum / static_cast<double>(samples), 1e-12);
  }
}

TEST(DecodeEngine, StepsMustBeSequential) {
  ProceduralContextModel model(small_shape(), small_params(), 2, 100);
  DecodeEngineConfig config;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  EXPECT_THROW(engine.decode_step(0), std::invalid_argument);  // prefill first
  engine.run_prefill();
  EXPECT_THROW(engine.decode_step(1), std::invalid_argument);
  EXPECT_NO_THROW(engine.decode_step(0));
  EXPECT_THROW(engine.run_prefill(), std::invalid_argument);
}

TEST(DecodeEngine, ScoreNeedsOneSelectedStep) {
  ProceduralContextModel model(small_shape(), small_params(), 2, 100);
  DecodeEngine engine(model, make_full_kv_factory(), DecodeEngineConfig{});
  engine.run_prefill();
  EXPECT_THROW(engine.score_step(), std::invalid_argument);  // nothing pending
  engine.select_step(0);
  // A second selection before scoring would overwrite the pending one.
  EXPECT_THROW(engine.select_next(), std::invalid_argument);
  EXPECT_THROW(engine.decode_step(1), std::invalid_argument);
  EXPECT_NO_THROW(engine.score_step());
  EXPECT_THROW(engine.score_step(), std::invalid_argument);  // already scored
  EXPECT_EQ(engine.steps_completed(), 1);
  EXPECT_NO_THROW(engine.decode_step(1));
}

void expect_steps_identical(const StepResult& a, const StepResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.mean_recall, b.mean_recall) << label;
  EXPECT_EQ(a.mean_coverage, b.mean_coverage) << label;
  EXPECT_EQ(a.tokens_selected, b.tokens_selected) << label;
  EXPECT_EQ(a.tokens_fetched, b.tokens_fetched) << label;
  EXPECT_EQ(a.tokens_cache_hit, b.tokens_cache_hit) << label;
  EXPECT_EQ(a.tokens_prefetch_hit, b.tokens_prefetch_hit) << label;
  EXPECT_EQ(a.tokens_prefetch_issued, b.tokens_prefetch_issued) << label;
}

// The scheduler runs budget enforcement and the degraded-mode reset
// between a step's two halves. Scoring reads only the context model and
// the stashed selections, so what happened to the selectors' residency in
// between must not change a bit of the step's quality.
TEST(DecodeEngine, ResidencyChangesBetweenHalvesLeaveScoresIdentical) {
  ClusterKVConfig ckv = small_ckv();
  ckv.prefetch_clusters = 3;
  for (const Index group : {1, 2}) {
    SimShape shape = small_shape();
    shape.queries_per_kv = group;
    const std::string label = "queries_per_kv " + std::to_string(group);
    ProceduralContextModel model_a(shape, small_params(), 31, 600);
    ProceduralContextModel model_b(shape, small_params(), 31, 600);
    DecodeEngineConfig config;
    config.budget = 64;
    DecodeEngine whole(model_a, make_clusterkv_factory(ckv, 4), config);
    DecodeEngine split(model_b, make_clusterkv_factory(ckv, 4), config);
    whole.run_prefill();
    split.run_prefill();
    Index released = 0;
    Index canceled = 0;
    for (Index s = 0; s < 10; ++s) {
      const StepResult reference = whole.decode_step(s);
      const StepResult traffic = split.select_step(s);
      EXPECT_EQ(traffic.tokens_fetched, reference.tokens_fetched) << label;
      EXPECT_EQ(traffic.tokens_prefetch_issued, reference.tokens_prefetch_issued)
          << label;
      // Enforcement on every selector of the split engine, and on the
      // reference engine after its step, so both select from the same
      // residency next step.
      for (DecodeEngine* engine : {&whole, &split}) {
        auto& bank = engine->selectors();
        for (Index l = 0; l < bank.num_layers(); ++l) {
          for (Index h = 0; h < bank.num_heads(); ++h) {
            const Index c = bank.at(l, h).cancel_prefetches();
            const Index r = bank.at(l, h).release_fast_tier();
            bank.at(l, h).set_degraded_step(false);
            if (engine == &split) {
              canceled += c;
              released += r;
            }
          }
        }
      }
      expect_steps_identical(reference, split.score_step(),
                             label + " step " + std::to_string(s));
    }
    EXPECT_GT(released, 0) << label;  // the enforcement was not vacuous
    EXPECT_GT(canceled, 0) << label;
    EXPECT_EQ(whole.recall_stat().mean(), split.recall_stat().mean()) << label;
    EXPECT_EQ(whole.recall_steps(), split.recall_steps()) << label;
  }
}

// prefill_chunk is the re-entrant mirror of select_next: consuming the
// prompt in slices must leave every selector with the same context, and
// for chunk-oblivious methods (full KV defers to one whole-prompt
// observe_prefill at the final chunk) the selection is bit-identical.
TEST(DecodeEngine, ChunkedPrefillMatchesWholePromptForChunkObliviousMethods) {
  const Index prompt = 250;
  ProceduralContextModel whole_model(small_shape(), small_params(), 5, prompt);
  ProceduralContextModel chunk_model(small_shape(), small_params(), 5, prompt);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;

  DecodeEngine whole(whole_model, make_quest_factory(), config);
  whole.run_prefill();

  DecodeEngine chunked(chunk_model, make_quest_factory(), config);
  EXPECT_FALSE(chunked.prefilled());
  Index consumed = 0;
  Index calls = 0;
  while (!chunked.prefilled()) {
    consumed += chunked.prefill_chunk(64);
    ++calls;
  }
  EXPECT_EQ(consumed, prompt);
  EXPECT_EQ(calls, 4);  // ceil(250 / 64)
  EXPECT_EQ(chunked.prefill_tokens_done(), prompt);
  EXPECT_EQ(chunked.prefill_chunk(64), 0);  // exhausted: consumes nothing

  for (Index s = 0; s < 4; ++s) {
    const auto a = whole.decode_step(s);
    const auto b = chunked.decode_step(s);
    EXPECT_EQ(a.tokens_selected, b.tokens_selected);
    EXPECT_DOUBLE_EQ(a.mean_recall, b.mean_recall);
    EXPECT_DOUBLE_EQ(a.mean_coverage, b.mean_coverage);
  }
}

TEST(DecodeEngine, ChunkedPrefillDrivesClusterKVIncrementally) {
  const Index prompt = 300;
  ProceduralContextModel model(small_shape(), small_params(), 6, prompt);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), 2), config);
  while (!engine.prefilled()) {
    engine.prefill_chunk(50);
    // Mixing the one-shot path into an ongoing chunked prefill is a
    // contract violation, not silent double feeding.
    EXPECT_THROW(engine.run_prefill(), std::invalid_argument);
  }
  // Every selector saw the full prompt and clustered all non-sink tokens.
  auto& bank = engine.selectors();
  for (Index l = 0; l < small_shape().num_layers; ++l) {
    for (Index h = 0; h < small_shape().num_heads; ++h) {
      const auto* ckv = dynamic_cast<const ClusterKVEngine*>(&bank.at(l, h));
      ASSERT_NE(ckv, nullptr);
      EXPECT_EQ(ckv->context_size(), prompt);
      EXPECT_EQ(ckv->pending_count(), 0);  // last chunk flushed the tail
      EXPECT_EQ(ckv->centroid_store().token_count(),
                prompt - small_ckv().sink_tokens);
    }
  }
  const auto step = engine.decode_step(0);
  EXPECT_GT(step.mean_recall, 0.0);
}

TEST(DecodeEngine, ClusterKVBeatsStreamingWindow) {
  const std::uint64_t seed = 4;
  const Index budget = 96;

  ProceduralContextModel m1(small_shape(), small_params(), seed, 800);
  DecodeEngineConfig config;
  config.budget = budget;
  config.full_attention_layers = 1;
  DecodeEngine ckv(m1, make_clusterkv_factory(small_ckv(), 1), config);
  ckv.run_prefill();

  ProceduralContextModel m2(small_shape(), small_params(), seed, 800);
  DecodeEngine window(m2, make_streaming_llm_factory(), config);
  window.run_prefill();

  for (Index s = 0; s < 16; ++s) {
    ckv.decode_step(s);
    window.decode_step(s);
  }
  EXPECT_GT(ckv.recall_stat().mean(), window.recall_stat().mean());
  EXPECT_GT(ckv.coverage_stat().mean(), window.coverage_stat().mean());
}

TEST(DecodeEngine, FullAttentionLayersBypassSelection) {
  ProceduralContextModel model(small_shape(), small_params(), 5, 300);
  DecodeEngineConfig config;
  config.budget = 32;
  config.full_attention_layers = 2;  // all layers full: metrics over none
  DecodeEngine engine(model, make_quest_factory(), config);
  engine.run_prefill();
  const auto step = engine.decode_step(0);
  // No selection-active layer contributes: attention was exact everywhere,
  // so the step reports vacuously lossless quality and the engine
  // aggregates collect no sample (recall_steps stays 0).
  EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
  EXPECT_DOUBLE_EQ(step.mean_coverage, 1.0);
  EXPECT_EQ(step.tokens_selected, 0);
  EXPECT_EQ(engine.recall_steps(), 0);
}

TEST(DecodeEngine, CacheCountersFlowThrough) {
  ProceduralContextModel model(small_shape(), small_params(), 6, 800);
  DecodeEngineConfig config;
  config.budget = 96;
  DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), 2), config);
  engine.run_prefill();
  Index fetched = 0;
  Index hits = 0;
  for (Index s = 0; s < 12; ++s) {
    const auto step = engine.decode_step(s);
    fetched += step.tokens_fetched;
    hits += step.tokens_cache_hit;
  }
  EXPECT_GT(fetched, 0);
  EXPECT_GT(hits, 0);  // consecutive steps share clusters (R = 1)
  EXPECT_EQ(engine.total_fetched(), fetched);
  EXPECT_EQ(engine.total_cache_hits(), hits);
}

TEST(DecodeEngine, BudgetValidation) {
  ProceduralContextModel model(small_shape(), small_params(), 7, 50);
  DecodeEngineConfig config;
  config.budget = 0;
  EXPECT_THROW(DecodeEngine(model, make_full_kv_factory(), config),
               std::invalid_argument);
  config.budget = 10;
  config.full_attention_layers = 5;
  EXPECT_THROW(DecodeEngine(model, make_full_kv_factory(), config),
               std::invalid_argument);
}

class BudgetMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetMonotonicity, ClusterKVCoverageGrowsWithBudget) {
  // Property: more budget never hurts coverage (averaged over steps).
  const std::uint64_t seed = GetParam();
  double previous = -1.0;
  for (const Index budget : {32, 96, 256}) {
    ProceduralContextModel model(small_shape(), small_params(), seed, 600);
    DecodeEngineConfig config;
    config.budget = budget;
    DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), seed), config);
    engine.run_prefill();
    for (Index s = 0; s < 8; ++s) {
      engine.decode_step(s);
    }
    EXPECT_GT(engine.coverage_stat().mean(), previous);
    previous = engine.coverage_stat().mean();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetMonotonicity, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace ckv
