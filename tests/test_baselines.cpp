#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/full_kv.hpp"
#include "baselines/h2o.hpp"
#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "model/procedural.hpp"
#include "tensor/rng.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

ProceduralParams small_params() {
  ProceduralParams p;
  p.head_dim = 32;
  p.num_topics = 16;
  return p;
}

HeadStream make_stream(Index prompt_len, std::uint64_t seed = 5) {
  return HeadStream(small_params(), Rng(derive_seed(seed, "s")), prompt_len);
}

TEST(FullKV, SelectsEverythingAlways) {
  auto stream = make_stream(50);
  FullKVSelector sel(32);
  sel.observe_prefill(stream.keys(), stream.values());
  const auto q = stream.query(0);
  const auto result = sel.select(q, 1);  // budget ignored by design
  EXPECT_EQ(result.indices.size(), 50u);
  EXPECT_EQ(sel.context_size(), 50);
  EXPECT_TRUE(sel.is_recallable());
}

TEST(FullKV, TracksDecodeTokens) {
  auto stream = make_stream(10);
  FullKVSelector sel(32);
  sel.observe_prefill(stream.keys(), stream.values());
  stream.append_generated();
  sel.observe_decode(stream.keys().row(10), stream.values().row(10));
  const auto q = stream.query(0);
  EXPECT_EQ(sel.select(q, 0).indices.size(), 11u);
}

TEST(Quest, PageScoreUpperBoundsMemberTokens) {
  // The invariant Quest's selection relies on: the per-channel max/min
  // metadata score is >= any member token's true attention score.
  auto stream = make_stream(320);
  QuestConfig config;
  config.page_size = 16;
  QuestSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());
  ASSERT_EQ(sel.page_count(), 20);
  for (Index step = 0; step < 8; ++step) {
    const auto q = stream.query(step);
    const auto scores = stream.attention_scores(q);
    for (Index page = 0; page < sel.page_count(); ++page) {
      const double bound = sel.page_score(q, page);
      for (Index t = page * 16; t < (page + 1) * 16; ++t) {
        EXPECT_GE(bound + 1e-4, scores[static_cast<std::size_t>(t)])
            << "page " << page << " token " << t;
      }
    }
  }
}

TEST(Quest, SelectsWholePages) {
  auto stream = make_stream(320);
  QuestSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  const auto q = stream.query(0);
  const auto result = sel.select(q, 64);
  EXPECT_EQ(result.indices.size(), 64u);
  // Tokens arrive in full pages: every selected page contributes its 16.
  std::set<Index> pages;
  for (const Index t : result.indices) {
    pages.insert(t / 16);
  }
  EXPECT_EQ(pages.size(), 4u);
  for (const Index p : pages) {
    for (Index t = p * 16; t < (p + 1) * 16; ++t) {
      EXPECT_TRUE(std::binary_search(result.indices.begin(), result.indices.end(), t));
    }
  }
}

TEST(Quest, PartialTailPageAlwaysIncluded) {
  auto stream = make_stream(100);  // 6 full pages + 4 tail tokens
  QuestSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  EXPECT_EQ(sel.page_count(), 6);
  const auto q = stream.query(0);
  const auto result = sel.select(q, 36);
  for (Index t = 96; t < 100; ++t) {
    EXPECT_TRUE(std::binary_search(result.indices.begin(), result.indices.end(), t));
  }
  // 36 - 4 tail = 32 -> 2 pages.
  EXPECT_EQ(result.indices.size(), 36u);
}

TEST(Quest, PagesFinalizeDuringDecode) {
  auto stream = make_stream(16);
  QuestSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  EXPECT_EQ(sel.page_count(), 1);
  for (int i = 0; i < 16; ++i) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    sel.observe_decode(stream.keys().row(last), stream.values().row(last));
  }
  EXPECT_EQ(sel.page_count(), 2);
}

TEST(Quest, FragmentationWastesBudget) {
  // With topic runs shorter than a page, important tokens scatter across
  // pages, so Quest needs notably more pages than important clusters
  // (Fig. 3b motivation). Sanity: selected tokens contain unimportant ones.
  auto stream = make_stream(640, 21);
  QuestSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  const auto q = stream.query(0);
  const Index budget = 64;
  const auto result = sel.select(q, budget);
  const auto scores = stream.attention_scores(q);
  const auto truth = top_k_indices(scores, budget);
  const std::set<Index> truth_set(truth.begin(), truth.end());
  Index important = 0;
  for (const Index t : result.indices) {
    if (truth_set.contains(t)) {
      ++important;
    }
  }
  EXPECT_LT(important, budget);  // some budget is spent on page filler
}

TEST(InfiniGen, ProjectionApproximatesScores) {
  auto stream = make_stream(512);
  InfiniGenConfig config;
  config.partial_dim = 16;
  InfiniGenSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());
  EXPECT_EQ(sel.basis().rows(), 16);
  EXPECT_EQ(sel.basis().cols(), 32);

  const auto q = stream.query(0);
  const auto result = sel.select(q, 64);
  EXPECT_EQ(result.indices.size(), 64u);
  // Approximate selection overlaps substantially with true top tokens.
  const auto scores = stream.attention_scores(q);
  const auto truth = top_k_indices(scores, 64);
  const std::set<Index> chosen(result.indices.begin(), result.indices.end());
  Index hit = 0;
  for (const Index t : truth) {
    if (chosen.contains(t)) {
      ++hit;
    }
  }
  EXPECT_GT(hit, 16);  // far better than random (64/512 * 64 = 8)
}

TEST(InfiniGen, ScoringWorkIsPerToken) {
  auto stream = make_stream(256);
  InfiniGenSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  const auto q = stream.query(0);
  const auto result = sel.select(q, 32);
  EXPECT_EQ(result.representations_scored, 256);  // O(L) selection (§II-C)
  EXPECT_EQ(sel.partial_dim(), 16);
  EXPECT_EQ(result.tokens_fetched, 32);  // no cluster cache
}

TEST(InfiniGen, DecodeTokensProjected) {
  auto stream = make_stream(128);
  InfiniGenSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  for (int i = 0; i < 10; ++i) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    sel.observe_decode(stream.keys().row(last), stream.values().row(last));
  }
  const auto q = stream.query(0);
  const auto result = sel.select(q, 138);
  EXPECT_EQ(result.indices.size(), 138u);
}

TEST(InfiniGen, DecodeBeforePrefillRejected) {
  InfiniGenSelector sel(32, {});
  const std::vector<float> x(32, 0.0f);
  EXPECT_THROW(sel.observe_decode(x, x), std::invalid_argument);
}

TEST(H2O, AliveSetBoundedByBudget) {
  auto stream = make_stream(300);
  H2OConfig config;
  config.budget = 64;
  H2OSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());
  EXPECT_EQ(sel.alive_positions().size(), 64u);
}

TEST(H2O, EvictionIsPermanent) {
  auto stream = make_stream(300);
  H2OConfig config;
  config.budget = 64;
  H2OSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());
  EXPECT_FALSE(sel.is_recallable());

  // Find an evicted token; no amount of later attention can bring it back.
  Index evicted = -1;
  for (Index t = 0; t < 300; ++t) {
    if (sel.is_evicted(t)) {
      evicted = t;
      break;
    }
  }
  ASSERT_GE(evicted, 0);
  for (int step = 0; step < 20; ++step) {
    stream.append_generated();
    const Index last = stream.size() - 1;
    sel.observe_decode(stream.keys().row(last), stream.values().row(last));
    const auto q = stream.query(step);
    const auto result = sel.select(q, 64);
    EXPECT_FALSE(std::binary_search(result.indices.begin(), result.indices.end(),
                                    evicted));
  }
}

TEST(H2O, HeavyHittersSurvive) {
  auto stream = make_stream(300);
  H2OConfig config;
  config.budget = 64;
  config.recent_fraction = 0.25;
  H2OSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());

  // Feed attention that concentrates on one alive token: it must survive
  // many decode steps of eviction pressure.
  const auto alive = sel.alive_positions();
  const Index heavy = alive.front();
  for (int step = 0; step < 30; ++step) {
    const std::vector<Index> idx{heavy};
    const std::vector<float> probs{1.0f};
    sel.observe_attention(idx, probs);
    stream.append_generated();
    const Index last = stream.size() - 1;
    sel.observe_decode(stream.keys().row(last), stream.values().row(last));
  }
  EXPECT_FALSE(sel.is_evicted(heavy));
}

TEST(StreamingLLM, SinksPlusWindow) {
  auto stream = make_stream(200);
  StreamingLLMConfig config;
  config.sink_tokens = 4;
  StreamingLLMSelector sel(32, config);
  sel.observe_prefill(stream.keys(), stream.values());
  const auto q = stream.query(0);
  const auto result = sel.select(q, 20);
  ASSERT_EQ(result.indices.size(), 20u);
  for (Index s = 0; s < 4; ++s) {
    EXPECT_EQ(result.indices[static_cast<std::size_t>(s)], s);
  }
  for (Index w = 0; w < 16; ++w) {
    EXPECT_EQ(result.indices[static_cast<std::size_t>(4 + w)], 184 + w);
  }
  EXPECT_FALSE(sel.is_recallable());
}

TEST(StreamingLLM, WindowSlidesWithDecode) {
  auto stream = make_stream(50);
  StreamingLLMSelector sel(32, {});
  sel.observe_prefill(stream.keys(), stream.values());
  stream.append_generated();
  sel.observe_decode(stream.keys().row(50), stream.values().row(50));
  const auto q = stream.query(0);
  const auto result = sel.select(q, 20);
  EXPECT_EQ(result.indices.back(), 50);
}

TEST(Factories, ProduceNamedSelectors) {
  EXPECT_EQ(make_full_kv_factory()(0, 0, 8)->name(), "Full KV");
  EXPECT_EQ(make_quest_factory()(0, 0, 8)->name(), "Quest");
  EXPECT_EQ(make_infinigen_factory()(0, 0, 8)->name(), "InfiniGen");
  H2OConfig h2o;
  EXPECT_EQ(make_h2o_factory(h2o)(0, 0, 8)->name(), "H2O");
  EXPECT_EQ(make_streaming_llm_factory()(0, 0, 8)->name(), "StreamingLLM");
}

TEST(Factories, InfiniGenPartialDimClamped) {
  InfiniGenConfig config;
  config.partial_dim = 64;
  auto sel = make_infinigen_factory(config)(0, 0, 8);
  auto stream = make_stream(32);
  // head_dim 8 here; the factory clamps partial_dim to 8 so prefill works.
  HeadStream tiny(
      [] {
        ProceduralParams p;
        p.head_dim = 8;
        p.num_topics = 4;
        return p;
      }(),
      Rng(1), 32);
  EXPECT_NO_THROW(sel->observe_prefill(tiny.keys(), tiny.values()));
}

}  // namespace
}  // namespace ckv
