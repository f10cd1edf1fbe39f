#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace fvae::nn {

AdamOptimizer::AdamOptimizer(std::vector<ParamRef> params,
                             float learning_rate, float beta1, float beta2,
                             float epsilon)
    : params_(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  FVAE_CHECK(learning_rate > 0.0f);
  FVAE_CHECK(beta1 >= 0.0f && beta1 < 1.0f);
  FVAE_CHECK(beta2 >= 0.0f && beta2 < 1.0f);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void AdamOptimizer::RestoreState(int64_t step_count, std::vector<Matrix> m,
                                 std::vector<Matrix> v) {
  FVAE_CHECK(step_count >= 0);
  FVAE_CHECK(m.size() == params_.size() && v.size() == params_.size())
      << "optimizer moment count mismatch";
  for (size_t i = 0; i < params_.size(); ++i) {
    const Matrix& value = *params_[i].value;
    FVAE_CHECK(m[i].rows() == value.rows() && m[i].cols() == value.cols() &&
               v[i].rows() == value.rows() && v[i].cols() == value.cols())
        << "optimizer moment shape mismatch";
  }
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void AdamOptimizer::Step() {
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, float(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, float(step_count_));
  const float alpha = learning_rate_ * std::sqrt(bias2) / bias1;
  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix& value = *params_[i].value;
    Matrix& grad = *params_[i].grad;
    FVAE_CHECK(grad.rows() == value.rows() && grad.cols() == value.cols())
        << "gradient shape mismatch";
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (size_t j = 0; j < value.size(); ++j) {
      const float g = grad.data()[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      value.data()[j] -= alpha * m[j] / (std::sqrt(v[j]) + epsilon_);
    }
    grad.SetZero();
  }
}

}  // namespace fvae::nn
