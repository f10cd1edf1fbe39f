#ifndef FVAE_TESTS_GRAD_CHECK_H_
#define FVAE_TESTS_GRAD_CHECK_H_

// Finite-difference gradient check shared by nn_test and nn_property_test,
// one template over the two trainable layer types (DenseLayer, Mlp), plus
// the per-type training passes it runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "math/matrix.h"
#include "nn/dense.h"
#include "nn/mlp.h"

namespace fvae::nn {

/// The training forward pass of either layer type, as a value.
inline Matrix ForwardOf(DenseLayer& layer, const Matrix& input,
                        ThreadPool* pool = nullptr) {
  Matrix out;
  layer.Forward(input, &out, pool);
  return out;
}
inline Matrix ForwardOf(Mlp& mlp, const Matrix& input,
                        ThreadPool* pool = nullptr) {
  return mlp.Forward(input, pool);
}

/// The backward pass after ForwardOf(input): fills the parameter gradients
/// and returns dL/d(input).
inline Matrix BackwardOf(DenseLayer& layer, const Matrix& input,
                         const Matrix& grad_output,
                         ThreadPool* pool = nullptr) {
  Matrix grad_input;
  layer.Backward(input, grad_output, &grad_input, pool);
  return grad_input;
}
inline Matrix BackwardOf(Mlp& mlp, const Matrix& input, Matrix grad_output,
                         ThreadPool* pool = nullptr) {
  Matrix grad_input;
  mlp.Backward(input, &grad_output, &grad_input, pool);
  return grad_input;
}

/// loss = sum(weights ⊙ net(input)) with Gaussian weights drawn from
/// `seed`; returns the largest |analytic - central difference| over the
/// input gradient and every parameter gradient.
template <typename Net>
double MaxGradientError(Net& net, const Matrix& input, uint64_t seed) {
  Rng rng(seed);
  const Matrix output = ForwardOf(net, input);
  const Matrix loss_weights =
      Matrix::Gaussian(output.rows(), output.cols(), 1.0f, rng);

  auto loss_of = [&](const Matrix& in) {
    const Matrix out = ForwardOf(net, in);
    double total = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      total += double(out.data()[i]) * loss_weights.data()[i];
    }
    return total;
  };

  // Analytic gradients, copied out before loss_of reruns the forward pass.
  const Matrix input_grad = BackwardOf(net, input, loss_weights);
  std::vector<ParamRef> params;
  net.CollectParams(&params);
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

}  // namespace fvae::nn

#endif  // FVAE_TESTS_GRAD_CHECK_H_
