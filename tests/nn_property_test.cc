// Parameterized (property-style) gradient checks over layer shapes and
// network depths: for every configuration, analytic gradients must match
// central finite differences.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "math/matrix.h"
#include "nn/dense.h"
#include "nn/mlp.h"

namespace fvae::nn {
namespace {

/// loss = sum(weights ⊙ layer(input)); returns max |analytic - numeric|
/// over input and parameter gradients.
double MaxGradientError(Layer& layer, Matrix input, uint64_t seed) {
  Rng rng(seed);
  Matrix output;
  layer.Forward(input, &output);
  const Matrix loss_weights =
      Matrix::Gaussian(output.rows(), output.cols(), 1.0f, rng);

  auto loss_of = [&](const Matrix& in) {
    Matrix out;
    layer.Forward(in, &out);
    double total = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      total += double(out.data()[i]) * loss_weights.data()[i];
    }
    return total;
  };

  layer.Forward(input, &output);
  Matrix input_grad;
  layer.Backward(loss_weights, &input_grad);
  std::vector<ParamRef> params;
  layer.CollectParams(&params);
  std::vector<Matrix> analytic;
  analytic.reserve(params.size());
  for (const ParamRef& p : params) analytic.push_back(*p.grad);

  double max_err = 0.0;
  const float h = 1e-3f;
  for (size_t i = 0; i < input.size(); ++i) {
    Matrix plus = input, minus = input;
    plus.data()[i] += h;
    minus.data()[i] -= h;
    const double numeric = (loss_of(plus) - loss_of(minus)) / (2.0 * h);
    max_err = std::max(max_err,
                       std::fabs(double(input_grad.data()[i]) - numeric));
  }
  for (size_t p = 0; p < params.size(); ++p) {
    Matrix& value = *params[p].value;
    for (size_t i = 0; i < value.size(); ++i) {
      const float original = value.data()[i];
      value.data()[i] = original + h;
      const double lp = loss_of(input);
      value.data()[i] = original - h;
      const double lm = loss_of(input);
      value.data()[i] = original;
      const double numeric = (lp - lm) / (2.0 * h);
      max_err = std::max(
          max_err, std::fabs(double(analytic[p].data()[i]) - numeric));
    }
  }
  return max_err;
}

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
    : public ::testing::TestWithParam<std::tuple<std::vector<size_t>, bool>> {
};

TEST_P(MlpDepthGradTest, GradientsMatchNumerics) {
  const auto [dims, activate_output] = GetParam();
  Rng rng(dims.size() * 1000 + dims.back());
  Mlp mlp(dims, rng, activate_output);
  const Matrix input = Matrix::Gaussian(3, dims.front(), 0.7f, rng);
  EXPECT_LT(MaxGradientError(mlp, input, 13), 8e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Depths, MlpDepthGradTest,
    ::testing::Values(std::make_tuple(std::vector<size_t>{4, 3}, false),
                      std::make_tuple(std::vector<size_t>{4, 6, 3}, false),
                      std::make_tuple(std::vector<size_t>{4, 6, 3}, true),
                      std::make_tuple(std::vector<size_t>{2, 8, 2}, true)));

}  // namespace
}  // namespace fvae::nn
