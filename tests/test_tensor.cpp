#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/matrix.hpp"
#include "tensor/rmsnorm.hpp"
#include "tensor/rng.hpp"
#include "tensor/rope.hpp"
#include "tensor/softmax.hpp"
#include "tensor/stats.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
}

TEST(Matrix, AppendRowAdoptsWidth) {
  Matrix m;
  const std::vector<float> r0{1.0f, 2.0f};
  m.append_row(r0);
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 2);
  const std::vector<float> bad{1.0f, 2.0f, 3.0f};
  EXPECT_THROW(m.append_row(bad), std::invalid_argument);
}

TEST(Matrix, ReserveRowsKeepsAppendsInPlace) {
  Matrix m(0, 3);
  m.reserve_rows(4);
  const std::vector<float> row{1.0f, 2.0f, 3.0f};
  m.append_row(row);
  const float* first = m.row(0).data();
  for (int i = 0; i < 3; ++i) {
    m.append_row(row);
  }
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.row(0).data(), first);  // no reallocation within the reserve
  EXPECT_FLOAT_EQ(m.at(3, 2), 3.0f);
  Matrix unknown_width;
  EXPECT_THROW(unknown_width.reserve_rows(4), std::invalid_argument);
  EXPECT_THROW(m.reserve_rows(-1), std::invalid_argument);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.row(2), std::invalid_argument);
  EXPECT_THROW((void)m.at(0, 2), std::invalid_argument);
  EXPECT_THROW((void)m.row(-1), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m(3, 5);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  const auto tt = m.transposed().transposed();
  EXPECT_DOUBLE_EQ(frobenius_distance(m, tt), 0.0);
}

TEST(Matrix, RowSlice) {
  Matrix m(4, 2);
  for (Index r = 0; r < 4; ++r) {
    m.at(r, 0) = static_cast<float>(r);
  }
  const auto s = m.row_slice(1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(1, 0), 2.0f);
}

TEST(Matrix, MatmulIdentity) {
  Rng rng(2);
  Matrix a(3, 3);
  rng.fill_normal(a.flat(), 0.0, 1.0);
  Matrix eye(3, 3);
  for (Index i = 0; i < 3; ++i) {
    eye.at(i, i) = 1.0f;
  }
  EXPECT_LT(frobenius_distance(matmul(a, eye), a), 1e-6);
  EXPECT_LT(frobenius_distance(matmul(eye, a), a), 1e-6);
}

TEST(Matrix, MatvecMatchesManual) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0f;
  m.at(0, 1) = 2.0f;
  m.at(1, 0) = 3.0f;
  m.at(1, 1) = 4.0f;
  const std::vector<float> v{1.0f, -1.0f};
  const auto out = matvec(m, v);
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], -1.0f);
  const auto out2 = vecmat(v, m);
  EXPECT_FLOAT_EQ(out2[0], -2.0f);
  EXPECT_FLOAT_EQ(out2[1], -2.0f);
}

TEST(VecOps, DotAndNorm) {
  const std::vector<float> a{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
}

TEST(VecOps, CosineSimilarityProperties) {
  Rng rng(3);
  const auto v = rng.unit_vector(16);
  EXPECT_NEAR(cosine_similarity(v, v), 1.0, 1e-6);
  std::vector<float> neg(v.begin(), v.end());
  scale_in_place(neg, -2.0f);
  EXPECT_NEAR(cosine_similarity(v, neg), -1.0, 1e-6);
  // Scale invariance: the property §III-B relies on.
  std::vector<float> scaled(v.begin(), v.end());
  scale_in_place(scaled, 42.0f);
  EXPECT_NEAR(cosine_similarity(v, scaled), 1.0, 1e-6);
}

TEST(VecOps, CosineOfZeroVectorIsZero) {
  const std::vector<float> z(4, 0.0f);
  const std::vector<float> v{1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(z, v), 0.0);
}

TEST(VecOps, SemanticDistanceRange) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.unit_vector(8);
    const auto b = rng.unit_vector(8);
    const double d = semantic_distance(a, b);
    EXPECT_GE(d, 0.0 - 1e-9);
    EXPECT_LE(d, 2.0 + 1e-9);
  }
}

TEST(VecOps, NormalizeHandlesZero) {
  std::vector<float> z(4, 0.0f);
  normalize_in_place(z);
  for (const float x : z) {
    EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(VecOps, AxpyAndAdd) {
  std::vector<float> y{1.0f, 1.0f};
  const std::vector<float> x{2.0f, 3.0f};
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  add_in_place(y, x);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(Softmax, SumsToOne) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  softmax_in_place(x);
  double sum = 0.0;
  for (const float p : x) {
    sum += p;
    EXPECT_GT(p, 0.0f);
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(x[3], x[0]);
}

TEST(Softmax, StableUnderLargeValues) {
  std::vector<float> x{1000.0f, 1001.0f};
  softmax_in_place(x);
  EXPECT_NEAR(x[0] + x[1], 1.0, 1e-6);
  EXPECT_FALSE(std::isnan(x[0]));
}

TEST(Softmax, LogSoftmaxConsistent) {
  const std::vector<float> x{0.5f, -1.0f, 2.0f};
  auto probs = x;
  softmax_in_place(probs);
  const auto logp = log_softmax(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::exp(logp[i]), probs[i], 1e-6);
  }
}

TEST(Softmax, EntropyOfUniform) {
  const std::vector<float> u(8, 0.125f);
  EXPECT_NEAR(entropy(u), std::log(8.0), 1e-6);
}

TEST(Softmax, AttentionOutputMatchesFull) {
  Rng rng(5);
  Matrix values(6, 4);
  rng.fill_normal(values.flat(), 0.0, 1.0);
  std::vector<float> scores(6);
  for (auto& s : scores) {
    s = static_cast<float>(rng.normal());
  }
  // Attending every row: the softmax-weighted sum of all value rows.
  std::vector<double> weights(scores.size());
  double z = 0.0;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    weights[r] = std::exp(static_cast<double>(scores[r]));
    z += weights[r];
  }
  std::vector<double> expected(4, 0.0);
  for (Index r = 0; r < values.rows(); ++r) {
    const double p = weights[static_cast<std::size_t>(r)] / z;
    for (Index c = 0; c < values.cols(); ++c) {
      expected[static_cast<std::size_t>(c)] += p * static_cast<double>(values.at(r, c));
    }
  }

  std::vector<Index> all{0, 1, 2, 3, 4, 5};
  std::vector<float> out(4);
  attention_output(scores, all, values, out);
  for (std::size_t c = 0; c < out.size(); ++c) {
    EXPECT_NEAR(out[c], expected[c], 1e-5);
  }
}

TEST(TopK, OrderAndTies) {
  const std::vector<float> s{1.0f, 3.0f, 3.0f, 2.0f};
  const auto top = top_k_indices(s, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);  // tie broken by lower index
  EXPECT_EQ(top[1], 2);
  EXPECT_EQ(top[2], 3);
}

TEST(TopK, TieSweepMatchesPartialSort) {
  // Scores quantised to a few levels so most values tie; every result must
  // equal std::partial_sort under the same (score desc, index asc) order.
  std::vector<Index> sizes(65);
  std::iota(sizes.begin(), sizes.end(), Index{0});
  for (Index n = 97; n < 2047; n += 97) {
    sizes.push_back(n);
  }
  sizes.insert(sizes.end(), {2047, 2048});
  Rng rng(2024);
  for (const Index n : sizes) {
    std::vector<float> s(static_cast<std::size_t>(n));
    const Index levels = rng.uniform_int(1, 8);
    for (auto& v : s) {
      v = static_cast<float>(rng.uniform_int(0, levels - 1)) * 0.5f;
    }
    const auto greater = [&s](Index a, Index b) {
      const float sa = s[static_cast<std::size_t>(a)];
      const float sb = s[static_cast<std::size_t>(b)];
      return sa != sb ? sa > sb : a < b;
    };
    for (const Index k : {Index{0}, Index{1}, n / 2, n - 1, n, n + 5}) {
      if (k < 0) {
        continue;
      }
      const Index kept = std::min(k, n);
      std::vector<Index> expected(static_cast<std::size_t>(n));
      std::iota(expected.begin(), expected.end(), Index{0});
      std::partial_sort(expected.begin(),
                        expected.begin() + static_cast<std::ptrdiff_t>(kept),
                        expected.end(), greater);
      expected.resize(static_cast<std::size_t>(kept));
      const auto got = top_k_indices(s, k);
      ASSERT_EQ(got.size(), expected.size()) << "n=" << n << " k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "n=" << n << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(TopK, ClampsK) {
  const std::vector<float> s{1.0f, 2.0f};
  EXPECT_EQ(top_k_indices(s, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices(s, 0).empty());
}

TEST(TopK, ArgsortBothDirections) {
  const std::vector<float> s{2.0f, 1.0f, 3.0f};
  const auto desc = argsort_descending(s);
  EXPECT_EQ(desc, (std::vector<Index>{2, 0, 1}));
  const auto asc = argsort_ascending(s);
  EXPECT_EQ(asc, (std::vector<Index>{1, 0, 2}));
}

TEST(Rope, PositionZeroIsIdentity) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  const auto orig = x;
  apply_rope(x, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], orig[i], 1e-6);
  }
}

TEST(Rope, PreservesNorm) {
  Rng rng(6);
  std::vector<float> x(16);
  rng.fill_normal(x, 0.0, 1.0);
  const double before = norm2(x);
  apply_rope(x, 1234);
  EXPECT_NEAR(norm2(x), before, 1e-4);
}

TEST(Rope, RelativePropertyOfDotProducts) {
  // RoPE's defining property: <rope(q, m), rope(k, n)> depends only on
  // (m - n) for the same underlying q, k.
  Rng rng(7);
  std::vector<float> q(8);
  std::vector<float> k(8);
  rng.fill_normal(q, 0.0, 1.0);
  rng.fill_normal(k, 0.0, 1.0);
  auto q1 = q;
  auto k1 = k;
  apply_rope(q1, 10);
  apply_rope(k1, 7);
  auto q2 = q;
  auto k2 = k;
  apply_rope(q2, 103);
  apply_rope(k2, 100);
  EXPECT_NEAR(dot(q1, k1), dot(q2, k2), 1e-4);
}

TEST(Rope, OddDimensionRejected) {
  std::vector<float> x(3, 1.0f);
  EXPECT_THROW(apply_rope(x, 1), std::invalid_argument);
}

TEST(RmsNorm, UnitScaleOutput) {
  std::vector<float> x{3.0f, -3.0f, 3.0f, -3.0f};
  std::vector<float> out(4);
  rms_norm(x, {}, out);
  // rms(x) = 3, so out = x / 3.
  EXPECT_NEAR(out[0], 1.0f, 1e-3);
  EXPECT_NEAR(out[1], -1.0f, 1e-3);
}

TEST(RmsNorm, WeightApplied) {
  std::vector<float> x{2.0f, 2.0f};
  std::vector<float> w{1.0f, 0.5f};
  std::vector<float> out(2);
  rms_norm(x, w, out);
  EXPECT_NEAR(out[0] / out[1], 2.0, 1e-5);
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.normal();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

}  // namespace
}  // namespace ckv
