// Parameterized (property-style) gradient checks over layer shapes and
// network depths: for every configuration, analytic gradients must match
// central finite differences.

#include <gtest/gtest.h>

#include "common/random.h"
#include "grad_check.h"
#include "math/matrix.h"
#include "nn/dense.h"
#include "nn/mlp.h"

namespace fvae::nn {
namespace {

class DenseShapeGradTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseShapeGradTest, GradientsMatchNumerics) {
  const auto [batch, in_dim, out_dim] = GetParam();
  Rng rng(batch * 100 + in_dim * 10 + out_dim);
  DenseLayer layer(in_dim, out_dim, rng);
  const Matrix input = Matrix::Gaussian(batch, in_dim, 1.0f, rng);
  EXPECT_LT(MaxGradientError(layer, input, 7), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseShapeGradTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(5, 3, 9), std::make_tuple(8, 8, 8),
                      std::make_tuple(2, 16, 4)));

class MlpDepthGradTest
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MlpDepthGradTest, GradientsMatchNumerics) {
  const std::vector<size_t>& dims = GetParam();
  Rng rng(dims.size() * 1000 + dims.back());
  Mlp mlp(dims, rng);
  const Matrix input = Matrix::Gaussian(3, dims.front(), 0.7f, rng);
  EXPECT_LT(MaxGradientError(mlp, input, 13), 8e-2);
}

INSTANTIATE_TEST_SUITE_P(Depths, MlpDepthGradTest,
                         ::testing::Values(std::vector<size_t>{4, 6, 3},
                                           std::vector<size_t>{2, 8, 2}));

}  // namespace
}  // namespace fvae::nn
