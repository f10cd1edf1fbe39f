#include "nn/mlp.h"

#include "common/check.h"
#include "nn/activations.h"

namespace fvae::nn {

namespace {
// The layer chain behind Forward and Infer: layer i reads layer i-1's
// output from `activations` and `step` runs one layer's pass.
template <typename Step>
void RunLayers(const std::vector<std::unique_ptr<Layer>>& layers,
               const Matrix& input, Matrix* output,
               std::vector<Matrix>* activations, Step step) {
  // Fixed-size after the first pass (layer count never changes), so this
  // is a no-op on every warmed-up call.
  activations->resize(layers.size());  // fvae-lint: allow(hot-alloc)
  const Matrix* current = &input;
  for (size_t i = 0; i < layers.size(); ++i) {
    step(*layers[i], *current, &(*activations)[i]);
    current = &(*activations)[i];
  }
  *output = *current;  // capacity-reusing copy once *output has seen the shape
}
}  // namespace

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng, bool activate_output) {
  FVAE_CHECK(dims.size() >= 2) << "Mlp needs at least input and output dims";
  in_dim_ = dims.front();
  out_dim_ = dims.back();
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<DenseLayer>(dims[i], dims[i + 1], rng));
    ++num_dense_;
    const bool is_last = i + 2 == dims.size();
    if (!is_last || activate_output) {
      layers_.push_back(std::make_unique<TanhLayer>());
    }
  }
}

void Mlp::Forward(const Matrix& input, Matrix* output, ThreadPool* pool) {
  RunLayers(layers_, input, output, &activations_,
            [pool](Layer& layer, const Matrix& in, Matrix* out) {
              layer.Forward(in, out, pool);
            });
}

void Mlp::Infer(const Matrix& input, Matrix* output,
                std::vector<Matrix>* scratch) const {
  FVAE_CHECK(scratch != nullptr) << "Mlp::Infer needs caller-owned scratch";
  RunLayers(layers_, input, output, scratch,
            [](const Layer& layer, const Matrix& in, Matrix* out) {
              layer.Infer(in, out);
            });
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
