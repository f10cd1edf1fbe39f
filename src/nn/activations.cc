#include "nn/activations.h"

#include <cmath>

#include "common/check.h"

namespace fvae::nn {

void TanhLayer::Forward(const Matrix& input, Matrix* output, bool training) {
  *output = input;
  for (size_t i = 0; i < output->size(); ++i) {
    output->data()[i] = std::tanh(output->data()[i]);
  }
  // Cached unconditionally: Backward is valid after any forward pass
  // (`training` only gates stochastic layers). Capacity-reusing once warm.
  (void)training;
  cached_output_ = *output;
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

void ReluLayer::Forward(const Matrix& input, Matrix* output, bool training) {
  *output = input;
  for (size_t i = 0; i < output->size(); ++i) {
    if (output->data()[i] < 0.0f) output->data()[i] = 0.0f;
  }
  (void)training;
  cached_output_ = *output;
}

void ReluLayer::Backward(const Matrix& grad_output, Matrix* grad_input,
                         ThreadPool* /*pool*/) {
  if (grad_input == nullptr) return;
  FVAE_CHECK(grad_output.size() == cached_output_.size())
      << "relu backward shape mismatch";
  grad_input->Resize(grad_output.rows(), grad_output.cols());
  for (size_t i = 0; i < grad_output.size(); ++i) {
    grad_input->data()[i] =
        cached_output_.data()[i] > 0.0f ? grad_output.data()[i] : 0.0f;
  }
}

void SigmoidLayer::Forward(const Matrix& input, Matrix* output,
                           bool training) {
  *output = input;
  for (size_t i = 0; i < output->size(); ++i) {
    output->data()[i] = 1.0f / (1.0f + std::exp(-output->data()[i]));
  }
  (void)training;
  cached_output_ = *output;
}

void SigmoidLayer::Backward(const Matrix& grad_output, Matrix* grad_input,
                            ThreadPool* /*pool*/) {
  if (grad_input == nullptr) return;
  FVAE_CHECK(grad_output.size() == cached_output_.size())
      << "sigmoid backward shape mismatch";
  grad_input->Resize(grad_output.rows(), grad_output.cols());
  for (size_t i = 0; i < grad_output.size(); ++i) {
    const float y = cached_output_.data()[i];
    grad_input->data()[i] = grad_output.data()[i] * y * (1.0f - y);
  }
}

DropoutLayer::DropoutLayer(double drop_prob, uint64_t seed)
    : drop_prob_(drop_prob), rng_(seed) {
  FVAE_CHECK(drop_prob >= 0.0 && drop_prob < 1.0)
      << "drop probability out of range: " << drop_prob;
}

void DropoutLayer::Forward(const Matrix& input, Matrix* output,
                           bool training) {
  last_training_ = training;
  *output = input;
  if (!training || drop_prob_ == 0.0) return;
  mask_.Resize(input.rows(), input.cols());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - drop_prob_));
  for (size_t i = 0; i < input.size(); ++i) {
    const float m = rng_.Bernoulli(drop_prob_) ? 0.0f : keep_scale;
    mask_.data()[i] = m;
    output->data()[i] *= m;
  }
}

void DropoutLayer::Backward(const Matrix& grad_output, Matrix* grad_input,
                            ThreadPool* /*pool*/) {
  if (grad_input == nullptr) return;
  *grad_input = grad_output;
  if (!last_training_ || drop_prob_ == 0.0) return;
  FVAE_CHECK(grad_output.size() == mask_.size())
      << "dropout backward shape mismatch";
  for (size_t i = 0; i < grad_output.size(); ++i) {
    grad_input->data()[i] *= mask_.data()[i];
  }
}

}  // namespace fvae::nn
