#include "nn/embedding.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace fvae::nn {

namespace {

constexpr uint32_t kNoSlot = ~uint32_t{0};

}  // namespace

EmbeddingTable::EmbeddingTable(size_t dim, bool with_bias, float init_stddev,
                               uint64_t seed)
    : dim_(dim), with_bias_(with_bias), init_stddev_(init_stddev),
      rng_(seed) {
  FVAE_CHECK(dim > 0) << "embedding dim must be positive";
  FVAE_CHECK(init_stddev >= 0.0f) << "negative init stddev";
}

uint32_t EmbeddingTable::GetOrCreateRow(uint64_t key) {
  const uint32_t row = GetOrCreateRowDeferred(key);
  InitPendingRows(nullptr);
  return row;
}

uint32_t EmbeddingTable::GetOrCreateRowDeferred(uint64_t key) {
  const size_t before = hash_.size();
  const uint32_t row = hash_.GetOrInsert(key);
  if (hash_.size() > before) {
    EnsureCapacity(row);
    FVAE_CHECK(keys_.size() == row) << "row/key bookkeeping out of sync";
    keys_.push_back(key);
    pending_.push_back({row, rng_.GetState()});
    rng_.SkipNormals(dim_);
  }
  return row;
}

void EmbeddingTable::InitPendingRows(ThreadPool* pool) {
  const auto init_rows = [&](size_t lo, size_t hi) {
    Rng rng;
    for (size_t i = lo; i < hi; ++i) {
      rng.SetState(pending_[i].state);
      float* w = weights_.data() + size_t(pending_[i].row) * dim_;
      for (size_t d = 0; d < dim_; ++d) {
        w[d] = static_cast<float>(rng.Normal(0.0, init_stddev_));
      }
    }
  };
  ParallelForRange(pool, 0, pending_.size(), /*align=*/1, init_rows);
  pending_.clear();
}

uint64_t EmbeddingTable::KeyOfRow(uint32_t row) const {
  FVAE_CHECK(row < keys_.size()) << "row out of range";
  return keys_[row];
}

std::vector<uint32_t> EmbeddingTable::TakeDirtyRows() {
  std::vector<uint32_t> out = std::move(dirty_);
  dirty_.clear();
  for (uint32_t row : out) is_dirty_[row] = false;
  return out;
}

std::optional<uint32_t> EmbeddingTable::FindRow(uint64_t key) const {
  return hash_.Find(key);
}

std::span<float> EmbeddingTable::Row(uint32_t row) {
  FVAE_CHECK(row < num_rows()) << "row out of range";
  return {weights_.data() + size_t(row) * dim_, dim_};
}

std::span<const float> EmbeddingTable::Row(uint32_t row) const {
  FVAE_CHECK(row < num_rows()) << "row out of range";
  return {weights_.data() + size_t(row) * dim_, dim_};
}

float EmbeddingTable::bias(uint32_t row) const {
  FVAE_CHECK(with_bias_ && row < num_rows());
  return biases_[row];
}

void EmbeddingTable::set_bias(uint32_t row, float value) {
  FVAE_CHECK(with_bias_ && row < num_rows());
  biases_[row] = value;
}

void EmbeddingTable::MarkTouched(uint32_t row) {
  FVAE_CHECK(row < num_rows()) << "row out of range";
  if (!is_touched_[row]) {
    is_touched_[row] = true;
    touched_.push_back(row);
  }
}

void EmbeddingTable::AddGrad(uint32_t row, std::span<const float> grad,
                             float bias_grad) {
  FVAE_CHECK(row < num_rows()) << "row out of range";
  FVAE_CHECK(grad.size() == dim_) << "gradient dim mismatch";
  float* g = grad_.data() + size_t(row) * dim_;
  for (size_t d = 0; d < dim_; ++d) g[d] += grad[d];
  if (with_bias_) grad_bias_[row] += bias_grad;
}

void EmbeddingTable::ScatterGrad(std::span<const SparseRef> refs,
                                 const Matrix& grads, ThreadPool* pool) {
  FVAE_CHECK(grads.cols() == dim_) << "gradient dim mismatch";
  // Number the distinct rows in first-touch order, marking each touched in
  // that order, and count each row's terms.
  slot_of_row_.resize(num_rows(), kNoSlot);
  slot_rows_.clear();
  slot_begin_.assign(1, 0);
  for (const SparseRef& ref : refs) {
    FVAE_CHECK(ref.row < num_rows() && ref.item < grads.rows())
        << "sparse ref out of range";
    uint32_t& slot = slot_of_row_[ref.row];
    if (slot == kNoSlot) {
      MarkTouched(ref.row);
      slot = static_cast<uint32_t>(slot_rows_.size());
      slot_rows_.push_back(ref.row);
      slot_begin_.push_back(0);
    }
    ++slot_begin_[slot + 1];
  }
  // Stable counting sort: each row's terms keep their `refs` order.
  for (size_t s = 1; s < slot_begin_.size(); ++s) {
    slot_begin_[s] += slot_begin_[s - 1];
  }
  slot_fill_.assign(slot_begin_.begin(), slot_begin_.end() - 1);
  slot_terms_.resize(refs.size());
  for (const SparseRef& ref : refs) {
    slot_terms_[slot_fill_[slot_of_row_[ref.row]]++] = {ref.item, ref.value};
  }
  for (uint32_t row : slot_rows_) slot_of_row_[row] = kNoSlot;

  const auto sum_rows = [&](size_t lo, size_t hi) {
    // Each term is rounded to float before it is added, as a caller of
    // AccumulateGrad rounds its scaled gradient.
    std::vector<float> scaled(dim_);
    for (size_t s = lo; s < hi; ++s) {
      for (size_t t = slot_begin_[s]; t < slot_begin_[s + 1]; ++t) {
        const float* g = grads.Row(slot_terms_[t].item);
        for (size_t d = 0; d < dim_; ++d) {
          scaled[d] = slot_terms_[t].value * g[d];
        }
        AddGrad(slot_rows_[s], scaled);
      }
    }
  };
  ParallelForRange(pool, 0, slot_rows_.size(), /*align=*/1, sum_rows);
}

void EmbeddingTable::ApplyGradients(float learning_rate, ThreadPool* pool,
                                    float epsilon) {
  for (uint32_t row : touched_) {
    if (!is_dirty_[row]) {
      is_dirty_[row] = true;
      dirty_.push_back(row);
    }
    is_touched_[row] = false;
  }
  const auto step_rows = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t row = touched_[i];
      float* w = weights_.data() + size_t(row) * dim_;
      float* g = grad_.data() + size_t(row) * dim_;
      float* acc = adagrad_.data() + size_t(row) * dim_;
      for (size_t d = 0; d < dim_; ++d) {
        acc[d] += g[d] * g[d];
        w[d] -= learning_rate * g[d] / (std::sqrt(acc[d]) + epsilon);
        g[d] = 0.0f;
      }
      if (with_bias_) {
        const float gb = grad_bias_[row];
        adagrad_bias_[row] += gb * gb;
        biases_[row] -=
            learning_rate * gb / (std::sqrt(adagrad_bias_[row]) + epsilon);
        grad_bias_[row] = 0.0f;
      }
    }
  };
  ParallelForRange(pool, 0, touched_.size(), /*align=*/1, step_rows);
  touched_.clear();
}

std::span<const float> EmbeddingTable::AdagradRow(uint32_t row) const {
  FVAE_CHECK(row < num_rows());
  return {adagrad_.data() + size_t(row) * dim_, dim_};
}

float EmbeddingTable::adagrad_bias(uint32_t row) const {
  FVAE_CHECK(with_bias_ && row < num_rows());
  return adagrad_bias_[row];
}

void EmbeddingTable::RestoreAdagradRow(uint32_t row,
                                       std::span<const float> accum,
                                       float bias_accum) {
  FVAE_CHECK(row < num_rows());
  FVAE_CHECK(accum.size() == dim_) << "accumulator dim mismatch";
  float* acc = adagrad_.data() + size_t(row) * dim_;
  std::copy(accum.begin(), accum.end(), acc);
  if (with_bias_) adagrad_bias_[row] = bias_accum;
}

std::span<const float> EmbeddingTable::RowGrad(uint32_t row) const {
  FVAE_CHECK(row < num_rows());
  return {grad_.data() + size_t(row) * dim_, dim_};
}

void EmbeddingTable::EnsureCapacity(uint32_t row) {
  const size_t needed = (size_t(row) + 1) * dim_;
  if (weights_.size() < needed) {
    weights_.resize(needed, 0.0f);
    adagrad_.resize(needed, 0.0f);
    grad_.resize(needed, 0.0f);
  }
  if (is_touched_.size() < size_t(row) + 1) {
    is_touched_.resize(size_t(row) + 1, false);
    is_dirty_.resize(size_t(row) + 1, false);
  }
  if (with_bias_ && biases_.size() < size_t(row) + 1) {
    biases_.resize(size_t(row) + 1, 0.0f);
    adagrad_bias_.resize(size_t(row) + 1, 0.0f);
    grad_bias_.resize(size_t(row) + 1, 0.0f);
  }
}

}  // namespace fvae::nn
