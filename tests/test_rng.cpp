#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "tensor/rng.hpp"

namespace ckv {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkIsIndependentOfConsumption) {
  Rng a(42);
  Rng b(42);
  (void)a.uniform();  // consume state from a only
  // fork derives from the seed, not from generator state.
  EXPECT_DOUBLE_EQ(a.fork("child").uniform(), b.fork("child").uniform());
  (void)a.normal();  // a now holds a normal spare, b holds none
  Rng child_a = a.fork("child");
  Rng child_b = b.fork("child");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(child_a.normal(), child_b.normal());
  }
}

TEST(Rng, ForksWithDifferentTagsDiffer) {
  Rng a(42);
  EXPECT_NE(a.fork("x").uniform(), a.fork("y").uniform());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Index v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformRangeBounds) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(-1.5, 2.5);
    EXPECT_GE(v, -1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  int tail = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
    if (std::abs(x - 2.0) > 2.0 * 3.0) {
      ++tail;
    }
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
  // P(|z| > 2) = 0.0455; its standard error at n = 20000 is 0.0015.
  EXPECT_NEAR(static_cast<double>(tail) / n, 0.0455, 0.006);
}

TEST(Rng, ZeroStddevIsDeterministic) {
  // A zero-width draw returns the mean and spends neither a fresh pair nor
  // a held spare.
  Rng a(4);
  Rng b(4);
  EXPECT_EQ(a.normal(5.0, 0.0), 5.0);
  EXPECT_EQ(a.normal(), b.normal());  // a now holds a spare, as b does
  EXPECT_EQ(a.normal(-1.0, 0.0), -1.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.normal(), b.normal());
  }
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, CopyContinuesIdenticallyWithHeldSpare) {
  Rng a(16);
  (void)a.normal();  // leaves the pair's second variate held
  Rng copy = a;
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(copy.normal(), a.normal());
  }
  EXPECT_EQ(copy.uniform(), a.uniform());
}

TEST(Rng, NormalFirstValuesPinned) {
  // Marsaglia polar on mt19937_64: u * f, then the held spare v * f.
  // DOUBLE_EQ (4 ulps) leaves room for a libm whose log differs by an ulp.
  Rng rng(2024);
  const double expected[] = {0x1.f044db830627cp-2,  0x1.447c891d355edp+0,
                             -0x1.377743b6de7adp+0, -0x1.b878eb425be45p-1,
                             0x1.64ef4ccebcf44p-1,  0x1.b52b327974835p-4};
  for (const double value : expected) {
    EXPECT_DOUBLE_EQ(rng.normal(), value);
  }
}

TEST(Rng, TraceShapingDrawsPinned) {
  // uniform, uniform_int and permutation shape the perfbench and serving
  // traces (perfbench's make_trace, src/serve/trace.cpp): a change to any
  // of them reshapes every registered workload, so their first draws are
  // pinned exactly.
  Rng u(2024);
  EXPECT_EQ(u.uniform(), 0x1.39b1c9e957cb2p-1);
  EXPECT_EQ(u.uniform(), 0x1.96e50634f5cdbp-1);
  EXPECT_EQ(u.uniform(), 0x1.10086ce6c6f19p-2);
  EXPECT_EQ(u.uniform(), 0x1.5652000d72624p-2);

  Rng ints(2024);
  const std::vector<Index> expected_ints{612, 794, 265, 334, 6, 140, 936, 566};
  std::vector<Index> got_ints;
  for (std::size_t i = 0; i < expected_ints.size(); ++i) {
    got_ints.push_back(ints.uniform_int(0, 999));
  }
  EXPECT_EQ(got_ints, expected_ints);

  Rng perm(2024);
  const std::vector<Index> expected_perm{9, 10, 7, 1, 3, 4, 11, 6, 0, 8, 5, 2};
  EXPECT_EQ(perm.permutation(12), expected_perm);
}

TEST(Rng, UnitVectorHasUnitNorm) {
  Rng rng(5);
  for (const Index dim : {2, 7, 64}) {
    const auto v = rng.unit_vector(dim);
    double norm_sq = 0.0;
    for (const float x : v) {
      norm_sq += static_cast<double>(x) * static_cast<double>(x);
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-5);
  }
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(6);
  const auto p = rng.permutation(50);
  std::set<Index> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<Index> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 30u);
  for (const Index v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(8);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<Index> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleRejectsBadK) {
  Rng rng(9);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, WeightedChoiceRespectsWeights) {
  Rng rng(10);
  const std::vector<double> w{0.0, 0.0, 1.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.weighted_choice(w), 2);
  }
}

TEST(Rng, WeightedChoiceFrequencies) {
  Rng rng(11);
  const std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_choice(w) == 1) {
      ++count1;
    }
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(Rng, WeightedChoiceRejectsDegenerate) {
  Rng rng(12);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_choice(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.weighted_choice(negative), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

}  // namespace
}  // namespace ckv
