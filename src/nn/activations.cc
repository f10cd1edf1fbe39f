#include "nn/activations.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"

namespace fvae::nn {

namespace {
// Rows [lo, hi) of tanh(input): a copy, then the kernel table's tanh.
void TanhRows(const Matrix& input, size_t lo, size_t hi, Matrix* output) {
  const size_t cols = input.cols();
  std::copy(input.Row(lo), input.Row(lo) + (hi - lo) * cols, output->Row(lo));
  Kernels().tanh_inplace(output->Row(lo), (hi - lo) * cols);
}
}  // namespace

void TanhLayer::Forward(const Matrix& input, Matrix* output,
                        ThreadPool* pool) {
  output->Resize(input.rows(), input.cols());
  ParallelForRange(pool, 0, input.rows(), /*align=*/1,
                   [&](size_t lo, size_t hi) {
                     TanhRows(input, lo, hi, output);
                   });
  cached_output_ = *output;  // capacity-reusing once warm
}

void TanhLayer::Infer(const Matrix& input, Matrix* output,
                      std::vector<Matrix>* /*scratch*/) const {
  output->Resize(input.rows(), input.cols());
  TanhRows(input, 0, input.rows(), output);
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
