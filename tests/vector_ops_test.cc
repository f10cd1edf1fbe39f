#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "math/vector_ops.h"

namespace fvae {
namespace {

TEST(VectorOpsTest, Dot) {
  std::vector<float> a{1, 2, 3};
  std::vector<float> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Dot(std::span<const float>{}, {}), 0.0);
}

TEST(VectorOpsTest, ScaleInPlace) {
  std::vector<float> x{2, -4};
  ScaleInPlace(x, 0.5f);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
}

TEST(VectorOpsTest, Norm2) {
  std::vector<float> x{3, 4};
  EXPECT_NEAR(Norm2(x), 5.0, 1e-9);
}

TEST(VectorOpsTest, SquaredDistance) {
  std::vector<float> a{0, 0};
  std::vector<float> b{3, 4};
  EXPECT_NEAR(SquaredDistance(a, b), 25.0, 1e-9);
}

TEST(VectorOpsTest, CosineSimilarity) {
  std::vector<float> a{1, 0};
  std::vector<float> b{0, 1};
  std::vector<float> c{2, 0};
  std::vector<float> zero{0, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(VectorOpsTest, SoftmaxSumsToOneAndOrders) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(logits);
  double total = 0.0;
  for (float p : logits) total += p;
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_LT(logits[0], logits[1]);
  EXPECT_LT(logits[1], logits[2]);
}

TEST(VectorOpsTest, SoftmaxIsShiftInvariant) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  std::vector<float> b{101.0f, 102.0f, 103.0f};
  SoftmaxInPlace(a);
  SoftmaxInPlace(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

TEST(VectorOpsTest, SoftmaxHandlesExtremeValues) {
  std::vector<float> logits{-1000.0f, 1000.0f};
  SoftmaxInPlace(logits);
  EXPECT_NEAR(logits[0], 0.0f, 1e-6f);
  EXPECT_NEAR(logits[1], 1.0f, 1e-6f);
}

TEST(VectorOpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  std::vector<float> logits{0.5f, -1.0f, 2.0f, 0.0f};
  std::vector<float> probs = logits;
  SoftmaxInPlace(probs);
  LogSoftmaxInPlace(logits);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(logits[i], std::log(probs[i]), 1e-5);
  }
}

TEST(VectorOpsTest, SoftmaxEmptySpanIsNoOp) {
  // Regression: the old loop computed 0/0 on an empty span once callers
  // started handing it empty candidate sets.
  std::vector<float> empty;
  SoftmaxInPlace(empty);
  LogSoftmaxInPlace(empty);
  EXPECT_TRUE(empty.empty());
}

TEST(VectorOpsTest, SoftmaxAllNegInfYieldsUniformNotNan) {
  // Regression: all-(-inf) logits used to produce exp(-inf - -inf) =
  // exp(NaN) and poison the whole distribution.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> logits(4, -inf);
  SoftmaxInPlace(logits);
  for (float p : logits) EXPECT_FLOAT_EQ(p, 0.25f);

  std::vector<float> log_logits(4, -inf);
  LogSoftmaxInPlace(log_logits);
  for (float lp : log_logits) EXPECT_FLOAT_EQ(lp, -std::log(4.0f));
}

TEST(VectorOpsTest, SoftmaxNanStillPoisons) {
  // NaN input is a caller bug; it must stay visible, not be laundered
  // into the all-(-inf) uniform fallback.
  std::vector<float> logits{0.0f, std::numeric_limits<float>::quiet_NaN(),
                            1.0f};
  SoftmaxInPlace(logits);
  for (float p : logits) EXPECT_TRUE(std::isnan(p));
}

TEST(VectorOpsTest, L2Normalize) {
  std::vector<float> x{3, 4};
  L2NormalizeInPlace(x);
  EXPECT_NEAR(Norm2(x), 1.0, 1e-6);
  std::vector<float> zero{0, 0};
  L2NormalizeInPlace(zero);  // must not produce NaN
  EXPECT_EQ(zero[0], 0.0f);
}

}  // namespace
}  // namespace fvae
