#ifndef FVAE_NN_ACTIVATIONS_H_
#define FVAE_NN_ACTIVATIONS_H_

#include "math/matrix.h"
#include "nn/layer.h"

namespace fvae::nn {

/// Elementwise tanh. Backward uses the cached output: d = (1 - y^2).
class TanhLayer : public Layer {
 public:
  void Forward(const Matrix& input, Matrix* output,
               ThreadPool* pool = nullptr) override;
  void Infer(const Matrix& input, Matrix* output,
             std::vector<Matrix>* scratch = nullptr) const override;
  void Backward(const Matrix& grad_output, Matrix* grad_input,
                ThreadPool* pool = nullptr) override;

 private:
  Matrix cached_output_;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_ACTIVATIONS_H_
