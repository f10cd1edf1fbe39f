#include "nn/mlp.h"

#include "common/check.h"
#include "nn/activations.h"

namespace fvae::nn {

namespace {
std::unique_ptr<Layer> MakeActivation(Activation activation) {
  switch (activation) {
    case Activation::kTanh:
      return std::make_unique<TanhLayer>();
    case Activation::kRelu:
      return std::make_unique<ReluLayer>();
    case Activation::kSigmoid:
      return std::make_unique<SigmoidLayer>();
    case Activation::kNone:
      return nullptr;
  }
  return nullptr;
}
}  // namespace

Mlp::Mlp(const std::vector<size_t>& dims, Activation activation, Rng& rng,
         bool activate_output) {
  FVAE_CHECK(dims.size() >= 2) << "Mlp needs at least input and output dims";
  in_dim_ = dims.front();
  out_dim_ = dims.back();
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<DenseLayer>(dims[i], dims[i + 1], rng));
    ++num_dense_;
    const bool is_last = i + 2 == dims.size();
    if (!is_last || activate_output) {
      auto act = MakeActivation(activation);
      if (act != nullptr) layers_.push_back(std::move(act));
    }
  }
}

void Mlp::Forward(const Matrix& input, Matrix* output, bool training) {
  // Fixed-size after the first pass (layer count never changes), so this
  // is a no-op on every warmed-up call.
  activations_.resize(layers_.size());  // fvae-lint: allow(hot-alloc)
  const Matrix* current = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &activations_[i], training);
    current = &activations_[i];
  }
  *output = *current;  // capacity-reusing copy once *output has seen the shape
}

void Mlp::Backward(const Matrix& grad_output, Matrix* grad_input,
                   ThreadPool* pool) {
  FVAE_CHECK(!layers_.empty());
  Matrix grad = grad_output;
  Matrix next;
  for (size_t i = layers_.size(); i-- > 0;) {
    const bool need_input_grad = (i > 0) || (grad_input != nullptr);
    layers_[i]->Backward(grad, need_input_grad ? &next : nullptr, pool);
    if (need_input_grad) grad = std::move(next);
  }
  if (grad_input != nullptr) *grad_input = std::move(grad);
}

void Mlp::CollectParams(std::vector<ParamRef>* out) {
  for (auto& layer : layers_) layer->CollectParams(out);
}

}  // namespace fvae::nn
