#include "nn/activations.h"

#include <cmath>

#include "common/check.h"

namespace fvae::nn {

void TanhLayer::Forward(const Matrix& input, Matrix* output) {
  Infer(input, output);
  cached_output_ = *output;  // capacity-reusing once warm
}

void TanhLayer::Infer(const Matrix& input, Matrix* output,
                      std::vector<Matrix>* /*scratch*/) const {
  *output = input;
  for (size_t i = 0; i < output->size(); ++i) {
    output->data()[i] = std::tanh(output->data()[i]);
  }
}

void TanhLayer::Backward(const Matrix& grad_output, Matrix* grad_input,
                         ThreadPool* /*pool*/) {
  if (grad_input == nullptr) return;
  FVAE_CHECK(grad_output.rows() == cached_output_.rows() &&
             grad_output.cols() == cached_output_.cols())
      << "tanh backward shape mismatch";
  grad_input->Resize(grad_output.rows(), grad_output.cols());
  for (size_t i = 0; i < grad_output.size(); ++i) {
    const float y = cached_output_.data()[i];
    grad_input->data()[i] = grad_output.data()[i] * (1.0f - y * y);
  }
}

}  // namespace fvae::nn
