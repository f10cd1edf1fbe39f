#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "eval/metrics.h"

namespace fvae::eval {
namespace {

TEST(AucTest, PerfectSeparation) {
  const std::vector<float> scores{0.9f, 0.8f, 0.2f, 0.1f};
  const std::vector<uint8_t> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 1.0);
}

TEST(AucTest, PerfectlyWrong) {
  const std::vector<float> scores{0.1f, 0.2f, 0.8f, 0.9f};
  const std::vector<uint8_t> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 0.0);
}

TEST(AucTest, KnownMiddleValue) {
  // Positives at ranks 1 and 3 of 4 (descending): AUC = 0.75... compute:
  // pairs: (pos 0.9 > neg 0.5), (0.9 > 0.1), (0.3 < 0.5), (0.3 > 0.1) = 3/4.
  const std::vector<float> scores{0.9f, 0.5f, 0.3f, 0.1f};
  const std::vector<uint8_t> labels{1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 0.75);
}

TEST(AucTest, TiesGetHalfCredit) {
  const std::vector<float> scores{0.5f, 0.5f};
  const std::vector<uint8_t> labels{1, 0};
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 0.5);
}

TEST(AucTest, AllTiedScores) {
  const std::vector<float> scores{1.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<uint8_t> labels{1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 0.5);
}

TEST(AucTest, DegenerateSingleClass) {
  const std::vector<float> scores{0.1f, 0.9f};
  EXPECT_DOUBLE_EQ(Auc(scores, std::vector<uint8_t>{1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(Auc(scores, std::vector<uint8_t>{0, 0}), 0.5);
}

TEST(AucTest, InvariantUnderMonotoneTransform) {
  Rng rng(1);
  std::vector<float> scores(50);
  std::vector<uint8_t> labels(50);
  for (int i = 0; i < 50; ++i) {
    scores[i] = static_cast<float>(rng.Normal());
    labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
  }
  const double base = Auc(scores, labels);
  std::vector<float> transformed = scores;
  for (float& s : transformed) s = std::exp(0.5f * s) + 3.0f;
  EXPECT_NEAR(Auc(transformed, labels), base, 1e-12);
}

TEST(AucTest, RandomScoresNearHalf) {
  Rng rng(2);
  std::vector<float> scores(5000);
  std::vector<uint8_t> labels(5000);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<float>(rng.Uniform());
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(Auc(scores, labels), 0.5, 0.03);
}

TEST(AveragePrecisionTest, PerfectRanking) {
  const std::vector<float> scores{0.9f, 0.8f, 0.2f};
  const std::vector<uint8_t> labels{1, 1, 0};
  EXPECT_DOUBLE_EQ(AveragePrecision(scores, labels), 1.0);
}

TEST(AveragePrecisionTest, KnownValue) {
  // Ranking (desc): pos, neg, pos -> AP = (1/1 + 2/3) / 2 = 5/6.
  const std::vector<float> scores{0.9f, 0.5f, 0.3f};
  const std::vector<uint8_t> labels{1, 0, 1};
  EXPECT_NEAR(AveragePrecision(scores, labels), 5.0 / 6.0, 1e-12);
}

TEST(AveragePrecisionTest, NoPositivesIsZero) {
  const std::vector<float> scores{0.9f, 0.5f};
  const std::vector<uint8_t> labels{0, 0};
  EXPECT_DOUBLE_EQ(AveragePrecision(scores, labels), 0.0);
}

TEST(AveragePrecisionTest, WorstRanking) {
  // neg, neg, pos -> AP = 1/3.
  const std::vector<float> scores{0.9f, 0.8f, 0.1f};
  const std::vector<uint8_t> labels{0, 0, 1};
  EXPECT_NEAR(AveragePrecision(scores, labels), 1.0 / 3.0, 1e-12);
}

TEST(MeanMetricsTest, SkipDegenerateQueries) {
  const std::vector<std::vector<float>> scores{
      {0.9f, 0.1f},   // perfect
      {0.5f, 0.6f},   // all negative -> skipped by both
  };
  const std::vector<std::vector<uint8_t>> labels{
      {1, 0},
      {0, 0},
  };
  EXPECT_DOUBLE_EQ(MeanAuc(scores, labels), 1.0);
  EXPECT_DOUBLE_EQ(MeanAveragePrecision(scores, labels), 1.0);
}

TEST(MeanMetricsTest, AveragesAcrossQueries) {
  const std::vector<std::vector<float>> scores{
      {0.9f, 0.1f},  // AUC 1
      {0.1f, 0.9f},  // AUC 0
  };
  const std::vector<std::vector<uint8_t>> labels{
      {1, 0},
      {1, 0},
  };
  EXPECT_DOUBLE_EQ(MeanAuc(scores, labels), 0.5);
}

TEST(MeanMetricsTest, EmptyInputsGiveDefaults) {
  EXPECT_DOUBLE_EQ(MeanAuc({}, {}), 0.5);
  EXPECT_DOUBLE_EQ(MeanAveragePrecision({}, {}), 0.0);
}

class AucSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AucSizeTest, BetterScoresBeatWorse) {
  // Property: positives drawn from N(1,1), negatives from N(0,1) must give
  // AUC well above 0.5 at any size.
  const size_t n = GetParam();
  Rng rng(n + 4);
  std::vector<float> scores(2 * n);
  std::vector<uint8_t> labels(2 * n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<float>(rng.Normal(1.0, 1.0));
    labels[i] = 1;
    scores[n + i] = static_cast<float>(rng.Normal(0.0, 1.0));
    labels[n + i] = 0;
  }
  EXPECT_GT(Auc(scores, labels), 0.6);
  EXPECT_GT(AveragePrecision(scores, labels), 0.6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AucSizeTest,
                         ::testing::Values(10, 100, 1000));

}  // namespace
}  // namespace fvae::eval
