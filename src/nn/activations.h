#ifndef FVAE_NN_ACTIVATIONS_H_
#define FVAE_NN_ACTIVATIONS_H_

#include "common/random.h"
#include "math/matrix.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Elementwise tanh. Backward uses the cached output: d = (1 - y^2).
class TanhLayer : public Layer {
 public:
  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;

 private:
  Matrix cached_output_;
};

/// Elementwise ReLU.
class ReluLayer : public Layer {
 public:
  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;

 private:
  Matrix cached_output_;
};

/// Elementwise logistic sigmoid.
class SigmoidLayer : public Layer {
 public:
  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;

 private:
  Matrix cached_output_;
};

/// Inverted dropout: at training time zeroes entries with probability p and
/// scales survivors by 1/(1-p); identity at inference time. Used by the
/// Mult-DAE baseline's corrupted input and by VAE encoder regularization.
class DropoutLayer : public Layer {
 public:
  DropoutLayer(double drop_prob, uint64_t seed);

  void Forward(const Matrix& input, Matrix* output, bool training) override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;

  double drop_prob() const { return drop_prob_; }

 private:
  double drop_prob_;
  Rng rng_;
  Matrix mask_;
  bool last_training_ = false;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_ACTIVATIONS_H_
