#include "nn/embedding.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/check.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"

namespace fvae::nn {

namespace {

constexpr uint32_t kNoSlot = ~uint32_t{0};

// A block holds the largest power-of-two number of rows whose weights fit
// in this many floats (at least one row).
constexpr size_t kBlockFloats = size_t{1} << 16;

uint32_t RowShift(size_t dim) {
  uint32_t shift = 0;
  while ((dim << (shift + 1)) <= kBlockFloats) ++shift;
  return shift;
}

}  // namespace

void EmbeddingTable::FreeDeleter::operator()(float* p) const { std::free(p); }

EmbeddingTable::EmbeddingTable(size_t dim, bool with_bias, float init_stddev,
                               uint64_t seed)
    : dim_(dim), with_bias_(with_bias), init_stddev_(init_stddev),
      seed_(seed), row_shift_(RowShift(dim)),
      row_mask_((uint32_t{1} << row_shift_) - 1),
      block_floats_((size_t{row_mask_} + 1) * dim) {
  FVAE_CHECK(dim > 0) << "embedding dim must be positive";
  FVAE_CHECK(init_stddev >= 0.0f) << "negative init stddev";
}

uint32_t EmbeddingTable::InsertKey(uint64_t key, bool* inserted) {
  const size_t before = hash_.size();
  const uint32_t row = hash_.GetOrInsert(key);
  *inserted = hash_.size() > before;
  if (*inserted) {
    AddRowStorage(row);
    FVAE_CHECK(keys_.size() == row) << "row/key bookkeeping out of sync";
    keys_.push_back(key);
  }
  return row;
}

void EmbeddingTable::RestoreKeys(std::span<const uint64_t> keys) {
  FVAE_CHECK(num_rows() == 0) << "RestoreKeys needs an empty table";
  hash_.RestoreItems(keys);
  keys_.resize(hash_.size());
  for (const auto& [key, row] : hash_.Items()) keys_[row] = key;
  for (uint32_t row = 0; row < hash_.size(); ++row) AddRowStorage(row);
}

void EmbeddingTable::AddRowStorage(uint32_t row) {
  if ((row >> row_shift_) == blocks_.size()) {
    // calloc hands back zeroed memory without touching it: a fresh block's
    // pages fault in where its rows are first written. The rows start on
    // a cache line, so at a dim that is a multiple of 16 no vector load of
    // a row straddles two lines.
    constexpr size_t kLineFloats = 64 / sizeof(float);
    float* memory = static_cast<float*>(
        std::calloc(3 * block_floats_ + kLineFloats, sizeof(float)));
    FVAE_CHECK(memory != nullptr) << "embedding block allocation failed";
    const size_t skew =
        reinterpret_cast<uintptr_t>(memory) / sizeof(float) % kLineFloats;
    float* weights = memory + (kLineFloats - skew) % kLineFloats;
    blocks_.push_back(
        {std::unique_ptr<float[], FreeDeleter>(memory), weights});
  }
  is_touched_.push_back(false);
  is_dirty_.push_back(false);
  if (with_bias_) {
    biases_.push_back(0.0f);
    adagrad_bias_.push_back(0.0f);
    grad_bias_.push_back(0.0f);
  }
}

uint32_t EmbeddingTable::GetOrCreateRow(uint64_t key) {
  const uint32_t row = GetOrCreateRowDeferred(key);
  InitPendingRows(nullptr);
  return row;
}

uint32_t EmbeddingTable::GetOrCreateRowDeferred(uint64_t key) {
  bool inserted = false;
  const uint32_t row = InsertKey(key, &inserted);
  if (inserted) pending_.push_back(row);
  return row;
}

void EmbeddingTable::RestoreRow(uint64_t key, std::span<const float> weights,
                                float bias) {
  FVAE_CHECK(weights.size() == dim_) << "weight dim mismatch";
  bool inserted = false;
  const uint32_t row = InsertKey(key, &inserted);
  std::copy(weights.begin(), weights.end(), Weights(row));
  if (with_bias_) biases_[row] = bias;
}

void EmbeddingTable::InitPendingRows(ThreadPool* pool) {
  const auto init_rows = [&](size_t lo, size_t hi) {
    const KernelTable& kernels = Kernels();
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t row = pending_[i];
      kernels.normal_fill(seed_, keys_[row], init_stddev_, Weights(row), dim_);
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
  return {Weights(row), dim_};
}

std::span<const float> EmbeddingTable::Row(uint32_t row) const {
  FVAE_CHECK(row < num_rows()) << "row out of range";
  return {Weights(row), dim_};
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
  // 1 * x is x exactly, so this is the plain elementwise add.
  Kernels().scale_add(1.0f, grad.data(), Gradient(row), dim_);
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
    // scale_add rounds each term to float before adding it, as a caller of
    // AccumulateGrad rounds its scaled gradient. That caller's zero bias
    // gradient still adds +0.0f once (turning a -0.0f sum into +0.0f);
    // further +0.0f adds change nothing.
    const KernelTable& kernels = Kernels();
    for (size_t s = lo; s < hi; ++s) {
      const uint32_t row = slot_rows_[s];
      float* row_grad = Gradient(row);
      for (size_t t = slot_begin_[s]; t < slot_begin_[s + 1]; ++t) {
        kernels.scale_add(slot_terms_[t].value,
                          grads.Row(slot_terms_[t].item), row_grad, dim_);
      }
      if (with_bias_) grad_bias_[row] += 0.0f;
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
    const KernelTable& kernels = Kernels();
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t row = touched_[i];
      kernels.adagrad_step(Weights(row), Accumulators(row), Gradient(row),
                           learning_rate, epsilon, dim_);
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
  return {Accumulators(row), dim_};
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
  std::copy(accum.begin(), accum.end(), Accumulators(row));
  if (with_bias_) adagrad_bias_[row] = bias_accum;
}

std::span<const float> EmbeddingTable::RowGrad(uint32_t row) const {
  FVAE_CHECK(row < num_rows());
  return {Gradient(row), dim_};
}

float EmbeddingTable::bias_grad(uint32_t row) const {
  FVAE_CHECK(with_bias_ && row < num_rows());
  return grad_bias_[row];
}

}  // namespace fvae::nn
