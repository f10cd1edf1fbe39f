#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/random.h"

namespace fvae {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.Next64() == b.Next64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(uint64_t{17}), 17u);
  }
}

TEST(RngTest, UniformIntOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(uint64_t{1}), 0u);
  }
}

TEST(RngTest, UniformIntIsApproximatelyUniform) {
  Rng rng(99);
  constexpr uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / double(kBuckets), 5 * std::sqrt(kDraws));
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{4});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  constexpr int kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / 50000.0, 5.0, 0.1);
}

// Generators seeded by MixKey share no lane across nearby seeds and keys,
// keys one golden-ratio increment apart included: a linear seed + key mix
// would give those three of four lanes in common.
TEST(RngTest, MixKeyStreamsShareNoLane) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  std::vector<uint64_t> lanes;
  for (uint64_t seed : {0, 1, 2}) {
    for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{2}, kGolden,
                         2 * kGolden, ~uint64_t{0}}) {
      const RngState state = Rng(MixKey(seed, key)).GetState();
      lanes.insert(lanes.end(), std::begin(state.s), std::end(state.s));
    }
  }
  std::sort(lanes.begin(), lanes.end());
  EXPECT_EQ(std::adjacent_find(lanes.begin(), lanes.end()), lanes.end());
  EXPECT_EQ(MixKey(7, 42), MixKey(7, 42));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(23);
  for (double shape : {0.5, 1.0, 3.0, 10.0}) {
    double sum = 0.0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / kDraws, shape, 0.1 * std::max(1.0, shape))
        << "shape " << shape;
  }
}

TEST(RngTest, GammaIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.Gamma(0.2), 0.0);
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(31);
  for (double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += double(rng.Poisson(lambda));
    EXPECT_NEAR(sum / kDraws, lambda, 0.1 * std::max(1.0, lambda))
        << "lambda " << lambda;
  }
}

TEST(RngTest, PoissonZeroRate) {
  Rng rng(37);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(41);
  const std::vector<double> alpha{0.5, 1.0, 2.0};
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> draw = rng.Dirichlet(alpha);
    ASSERT_EQ(draw.size(), 3u);
    double total = 0.0;
    for (double v : draw) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletMeanProportionalToAlpha) {
  Rng rng(43);
  const std::vector<double> alpha{1.0, 3.0};
  double sum0 = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum0 += rng.Dirichlet(alpha)[0];
  EXPECT_NEAR(sum0 / kDraws, 0.25, 0.01);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = rng.SampleWithoutReplacement(100, 20);
    ASSERT_EQ(picks.size(), 20u);
    std::set<uint64_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 20u);
    for (uint64_t p : picks) EXPECT_LT(p, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(53);
  const auto picks = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(59);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, WorksWithStdDistributions) {
  Rng rng(61);
  // Satisfies UniformRandomBitGenerator.
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// ---------- AliasSampler ----------

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(67);
  AliasSampler sampler({1.0, 2.0, 7.0});
  constexpr int kDraws = 100000;
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.7, 0.01);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  Rng rng(71);
  AliasSampler sampler({0.0, 1.0, 0.0, 1.0});
  for (int i = 0; i < 10000; ++i) {
    const size_t s = sampler.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleElement) {
  Rng rng(73);
  AliasSampler sampler({5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(AliasSamplerTest, UniformWeights) {
  Rng rng(79);
  AliasSampler sampler(std::vector<double>(8, 1.0));
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 8.0, 400.0);
}

}  // namespace
}  // namespace fvae
