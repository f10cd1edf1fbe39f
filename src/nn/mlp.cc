#include "nn/mlp.h"

#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"

namespace fvae::nn {

namespace {
// Rows [lo, hi) of one block, out = tanh(in * W + b); out is already sized.
void BlockRows(const DenseLayer& layer, const Matrix& in, size_t lo,
               size_t hi, Matrix* out) {
  layer.AffineRows(in, lo, hi, out);
  Kernels().tanh_inplace(out->Row(lo), (hi - lo) * out->cols());
}

// The block chain behind Forward and Infer: block i reads block i-1's
// output from `outputs`, and `pass` fills one block's output rows.
template <typename Pass>
const Matrix& RunBlocks(const std::vector<DenseLayer>& layers,
                        const Matrix& input, std::vector<Matrix>* outputs,
                        Pass pass) {
  // Fixed-size after the first pass (the block count never changes), so
  // this is a no-op on every warmed-up call.
  outputs->resize(layers.size());  // fvae-lint: allow(hot-alloc)
  const Matrix* in = &input;
  for (size_t i = 0; i < layers.size(); ++i) {
    Matrix& out = (*outputs)[i];
    out.Resize(in->rows(), layers[i].out_dim());
    pass(layers[i], *in, &out);
    in = &out;
  }
  return *in;
}
}  // namespace

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  FVAE_CHECK(dims.size() >= 2) << "Mlp needs at least input and output dims";
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

const Matrix& Mlp::Forward(const Matrix& input, ThreadPool* pool) {
  return RunBlocks(layers_, input, &outputs_,
                   [pool](const DenseLayer& layer, const Matrix& in,
                          Matrix* out) {
                     ParallelForRange(pool, 0, in.rows(), kGemmRowTile,
                                      [&](size_t lo, size_t hi) {
                                        BlockRows(layer, in, lo, hi, out);
                                      });
                   });
}

const Matrix& Mlp::Infer(const Matrix& input,
                         std::vector<Matrix>* scratch) const {
  return RunBlocks(layers_, input, scratch,
                   [](const DenseLayer& layer, const Matrix& in,
                      Matrix* out) {
                     BlockRows(layer, in, 0, in.rows(), out);
                   });
}

void Mlp::Backward(const Matrix& input, Matrix* grad, Matrix* grad_input,
                   ThreadPool* pool) {
  FVAE_CHECK(outputs_.size() == layers_.size()) << "Backward before Forward";
  Matrix next;
  for (size_t i = layers_.size(); i-- > 0;) {
    TanhBackward(outputs_[i], grad);
    const Matrix& in = i > 0 ? outputs_[i - 1] : input;
    layers_[i].Backward(in, *grad, i > 0 ? &next : grad_input, pool);
    if (i > 0) std::swap(*grad, next);
  }
}

void Mlp::CollectParams(std::vector<ParamRef>* out) {
  for (DenseLayer& layer : layers_) layer.CollectParams(out);
}

}  // namespace fvae::nn
