#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "model/procedural.hpp"
#include "tensor/rng.hpp"
#include "tensor/softmax.hpp"
#include "tensor/stats.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

ProceduralParams default_params() {
  ProceduralParams p;
  p.head_dim = 32;
  p.num_topics = 16;
  return p;
}

TEST(HeadStream, DeterministicForSeed) {
  auto p = default_params();
  HeadStream a(p, Rng(42), 100);
  HeadStream b(p, Rng(42), 100);
  EXPECT_LT(frobenius_distance(a.keys(), b.keys()), 1e-9);
  EXPECT_EQ(a.query(3), b.query(3));
}

TEST(HeadStream, DifferentSeedsDiffer) {
  auto p = default_params();
  HeadStream a(p, Rng(1), 100);
  HeadStream b(p, Rng(2), 100);
  EXPECT_GT(frobenius_distance(a.keys(), b.keys()), 1.0);
}

TEST(HeadStream, SinkTokensHaveNegativeTopic) {
  auto p = default_params();
  p.sink_tokens = 4;
  HeadStream s(p, Rng(3), 50);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_LT(s.topic_of(i), 0);
  }
  for (Index i = 4; i < 50; ++i) {
    EXPECT_GE(s.topic_of(i), 0);
    EXPECT_LT(s.topic_of(i), p.num_topics);
  }
}

TEST(HeadStream, SinkKeysAreDirectionalOutliers) {
  // Sinks form a tight cluster far from every topic in direction space —
  // the reason §III-B excludes them from clustering.
  auto p = default_params();
  p.sink_tokens = 4;
  HeadStream s(p, Rng(4), 200);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = i + 1; j < 4; ++j) {
      EXPECT_GT(cosine_similarity(s.keys().row(i), s.keys().row(j)), 0.95);
    }
  }
  double mean_abs_cos = 0.0;
  for (Index t = 4; t < 200; ++t) {
    mean_abs_cos += std::abs(cosine_similarity(s.keys().row(0), s.keys().row(t)));
  }
  mean_abs_cos /= 196.0;
  EXPECT_LT(mean_abs_cos, 0.5);
}

TEST(HeadStream, TopicsFormSegments) {
  auto p = default_params();
  p.topic_change_prob = 0.05;
  HeadStream s(p, Rng(5), 2000);
  Index changes = 0;
  for (Index i = p.sink_tokens + 1; i < 2000; ++i) {
    if (s.topic_of(i) != s.topic_of(i - 1)) {
      ++changes;
    }
  }
  // Expected changes ~ 2000 * 0.05 = 100; far below 2000 (i.i.d. would be
  // ~1875 with 16 topics).
  EXPECT_LT(changes, 300);
  EXPECT_GT(changes, 20);
}

TEST(HeadStream, SameTopicKeysAreCloserInCosine) {
  // In the informative subspace (outlier channels removed, as their
  // shared large-magnitude offsets compress all angles — the KIVI effect
  // §III-B cites), same-topic keys are clearly closer in cosine.
  auto p = default_params();
  p.outlier_channels = 0;  // isolate the semantic structure
  HeadStream s(p, Rng(6), 1000);
  double same = 0.0;
  Index same_n = 0;
  double diff = 0.0;
  Index diff_n = 0;
  for (Index i = p.sink_tokens; i < 999; i += 3) {
    for (Index j = i + 1; j < std::min<Index>(i + 40, 1000); j += 7) {
      const double cs = cosine_similarity(s.keys().row(i), s.keys().row(j));
      if (s.topic_of(i) == s.topic_of(j)) {
        same += cs;
        ++same_n;
      } else {
        diff += cs;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(diff_n, 0);
  EXPECT_GT(same / same_n, diff / diff_n + 0.1);
}

TEST(HeadStream, OutlierChannelsCompressCosineAngles) {
  // With KIVI-scale outliers present, all pairwise cosines are pushed
  // toward 1 (shared offsets dominate) — the reason raw L2 / IP distances
  // "change drastically" while relative cosine structure survives.
  auto with = default_params();
  auto without = default_params();
  without.outlier_channels = 0;
  HeadStream a(with, Rng(61), 400);
  HeadStream b(without, Rng(61), 400);
  RunningStat cos_with;
  RunningStat cos_without;
  for (Index i = with.sink_tokens; i < 390; i += 5) {
    cos_with.add(cosine_similarity(a.keys().row(i), a.keys().row(i + 3)));
    cos_without.add(cosine_similarity(b.keys().row(i), b.keys().row(i + 3)));
  }
  EXPECT_GT(cos_with.mean(), cos_without.mean());
  EXPECT_GT(cos_with.mean(), 0.7);
}

TEST(HeadStream, OutlierChannelsCarryLargeMagnitude) {
  auto p = default_params();
  p.outlier_channels = 4;
  p.outlier_offset = 2.0;
  HeadStream s(p, Rng(7), 500);
  // Mean |value| per channel: outlier channels must dominate.
  std::vector<double> channel_mag(32, 0.0);
  for (Index i = p.sink_tokens; i < 500; ++i) {
    const auto k = s.keys().row(i);
    for (Index c = 0; c < 32; ++c) {
      channel_mag[static_cast<std::size_t>(c)] +=
          std::abs(static_cast<double>(k[static_cast<std::size_t>(c)]));
    }
  }
  std::vector<float> mags(channel_mag.begin(), channel_mag.end());
  const auto order = argsort_descending(mags);
  // The top channel's mean magnitude is far above the median channel's.
  const double top = channel_mag[static_cast<std::size_t>(order[0])];
  const double median = channel_mag[static_cast<std::size_t>(order[16])];
  EXPECT_GT(top, 2.0 * median);
}

TEST(HeadStream, QueriesConcentrateAttentionOnFocusTopics) {
  auto p = default_params();
  HeadStream s(p, Rng(8), 2000);
  const auto q = s.query(0);
  auto scores = s.attention_scores(q);
  softmax_in_place(scores);
  // Attention should be concentrated: top-10% of tokens carry most mass.
  const auto order = argsort_descending(scores);
  double top_mass = 0.0;
  for (Index i = 0; i < 200; ++i) {
    top_mass += scores[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  EXPECT_GT(top_mass, 0.5);
}

TEST(HeadStream, PinFocusRedirectsImportance) {
  auto p = default_params();
  HeadStream s(p, Rng(9), 2000);
  // Pin steps [0, 4) to one semantic topic (its occurrences are scattered
  // across the whole context).
  const Index pinned_topic = s.topic_of(1000);
  std::vector<Index> needle;
  for (Index i = p.sink_tokens; i < 2000; ++i) {
    if (s.topic_of(i) == pinned_topic) {
      needle.push_back(i);
    }
  }
  ASSERT_GT(needle.size(), 10u);
  s.pin_focus(0, 4, needle);
  const auto q = s.query(0);
  auto probs = s.attention_scores(q);
  softmax_in_place(probs);
  // Tokens sharing the needle topic receive outsized attention mass.
  const Index needle_topic = s.topic_of(1000);
  double needle_topic_mass = 0.0;
  Index needle_topic_count = 0;
  for (Index i = p.sink_tokens; i < 2000; ++i) {
    if (s.topic_of(i) == needle_topic) {
      needle_topic_mass += probs[static_cast<std::size_t>(i)];
      ++needle_topic_count;
    }
  }
  const double uniform_share =
      static_cast<double>(needle_topic_count) / 2000.0;
  EXPECT_GT(needle_topic_mass, 5.0 * uniform_share);
}

TEST(HeadStream, ImportanceDriftsAcrossSteps) {
  // Fig. 3a property: token importance ranks change over decode steps.
  auto p = default_params();
  p.focus_drift_prob = 0.5;  // fast drift for the test
  HeadStream s(p, Rng(10), 1000);
  const auto q0 = s.query(0);
  const auto q40 = s.query(40);
  const auto top0 = top_k_indices(s.attention_scores(q0), 50);
  const auto top40 = top_k_indices(s.attention_scores(q40), 50);
  const std::set<Index> set0(top0.begin(), top0.end());
  Index overlap = 0;
  for (const Index t : top40) {
    if (set0.contains(t)) {
      ++overlap;
    }
  }
  EXPECT_LT(overlap, 45);  // the top set moved
}

TEST(HeadStream, QueryMemoizationStable) {
  auto p = default_params();
  HeadStream s(p, Rng(11), 100);
  const auto first = s.query(5);
  const auto again = s.query(5);
  EXPECT_EQ(first, again);
  // Sparse access materializes intermediate steps.
  const auto far = s.query(50);
  EXPECT_EQ(far.size(), 32u);
}

TEST(HeadStream, PinFocusRejectsMaterializedSteps) {
  auto p = default_params();
  HeadStream s(p, Rng(11), 100);
  const std::vector<Index> positions{50, 51, 52};
  (void)s.query(5);  // materializes steps 0..5
  EXPECT_THROW(s.pin_focus(5, 8, positions), std::invalid_argument);
  EXPECT_NO_THROW(s.pin_focus(6, 8, positions));
}

TEST(HeadStream, AttentionScoresScaledDot) {
  // The decode oracle's truth: q . k_i / sqrt(d) for every stored key, or
  // for the first prefix_len keys.
  auto p = default_params();
  HeadStream s(p, Rng(13), 100);
  const auto q = s.query(0);
  const auto scores = s.attention_scores(q);
  ASSERT_EQ(scores.size(), 100u);
  const double sqrt_d = std::sqrt(static_cast<double>(p.head_dim));
  for (Index i = 0; i < s.size(); ++i) {
    const double want = dot(q, s.keys().row(i)) / sqrt_d;
    EXPECT_NEAR(scores[static_cast<std::size_t>(i)], want, 1e-5 * (1.0 + std::abs(want)))
        << "token " << i;
  }
  EXPECT_EQ(s.attention_scores(q, 40),
            std::vector<float>(scores.begin(), scores.begin() + 40));
}

TEST(HeadStream, AppendGeneratedContinuesProcess) {
  auto p = default_params();
  HeadStream s(p, Rng(12), 100);
  for (int i = 0; i < 20; ++i) {
    s.append_generated();
  }
  EXPECT_EQ(s.size(), 120);
  EXPECT_GE(s.topic_of(119), 0);
}

TEST(ProceduralModel, ShapeAndIndependentHeads) {
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 3;
  shape.head_dim = 32;
  ProceduralContextModel model(shape, default_params(), 77, 200);
  EXPECT_EQ(model.context_len(), 200);
  EXPECT_GT(frobenius_distance(model.head(0, 0).keys(), model.head(0, 1).keys()),
            1.0);
  EXPECT_GT(frobenius_distance(model.head(0, 0).keys(), model.head(1, 0).keys()),
            1.0);
}

TEST(ProceduralModel, AppendAdvancesAllHeads) {
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 2;
  shape.head_dim = 32;
  ProceduralContextModel model(shape, default_params(), 78, 50);
  model.append_generated();
  for (Index l = 0; l < 2; ++l) {
    for (Index h = 0; h < 2; ++h) {
      EXPECT_EQ(model.head(l, h).size(), 51);
    }
  }
}

TEST(ProceduralModel, BoundsChecked) {
  SimShape shape;
  shape.num_layers = 1;
  shape.num_heads = 1;
  shape.head_dim = 16;
  ProceduralParams p = default_params();
  p.head_dim = 16;
  ProceduralContextModel model(shape, p, 79, 10);
  EXPECT_THROW((void)model.head(1, 0), std::invalid_argument);
  EXPECT_THROW((void)model.head(0, 1), std::invalid_argument);
}

/// Every head's keys, values and first decode queries (every group
/// member), after `appended` generated tokens, flattened for bitwise
/// comparison.
std::vector<float> model_contents(ProceduralContextModel& model, Index appended) {
  for (Index s = 0; s < appended; ++s) {
    model.append_generated();
  }
  std::vector<float> out;
  for (Index l = 0; l < model.shape().num_layers; ++l) {
    for (Index h = 0; h < model.shape().num_heads; ++h) {
      HeadStream& stream = model.head(l, h);
      out.insert(out.end(), stream.keys().flat().begin(), stream.keys().flat().end());
      out.insert(out.end(), stream.values().flat().begin(),
                 stream.values().flat().end());
      for (Index step = 0; step < appended; ++step) {
        for (Index sub = 0; sub < model.shape().queries_per_kv; ++sub) {
          const auto q = stream.query(step, sub);
          out.insert(out.end(), q.begin(), q.end());
        }
      }
    }
  }
  return out;
}

// The model builds its heads with parallel_for: every worker count, and
// the capacity hint, must give the same streams bit for bit — multi-layer
// and GQA shapes included.
TEST(ProceduralModel, BitIdenticalAcrossWorkerCountsAndCapacity) {
  WorkerGuard worker_guard;
  SimShape mha;
  mha.num_layers = 3;
  mha.num_heads = 3;
  mha.head_dim = 32;
  SimShape gqa = mha;
  gqa.num_layers = 2;
  gqa.queries_per_kv = 4;
  for (const SimShape& shape : {mha, gqa}) {
    set_parallel_workers(1);
    ProceduralContextModel reference(shape, default_params(), 91, 150);
    const auto expected = model_contents(reference, 6);
    for (const int workers : {1, 2, 8}) {
      set_parallel_workers(workers);
      for (const Index capacity : {Index{0}, Index{156}, Index{400}}) {
        ProceduralContextModel model(shape, default_params(), 91, 150, capacity);
        EXPECT_EQ(model_contents(model, 6), expected)
            << "queries_per_kv " << shape.queries_per_kv << ", " << workers
            << " workers, capacity " << capacity;
      }
    }
  }
}

// Built from inside a parallel body, the model's own parallel_for runs
// inline on the worker and still matches.
TEST(ProceduralModel, NestedConstructionMatches) {
  WorkerGuard worker_guard;
  set_parallel_workers(4);
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 2;
  shape.head_dim = 32;
  ProceduralContextModel reference(shape, default_params(), 5, 120);
  const auto expected = model_contents(reference, 2);
  std::vector<std::vector<float>> built(4);
  parallel_for_range(0, 4, 1, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      ProceduralContextModel model(shape, default_params(), 5, 120, 122);
      built[static_cast<std::size_t>(i)] = model_contents(model, 2);
    }
  });
  for (const auto& contents : built) {
    EXPECT_EQ(contents, expected);
  }
}

}  // namespace
}  // namespace ckv
