#ifndef FVAE_NN_EMBEDDING_H_
#define FVAE_NN_EMBEDDING_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "hash/dynamic_hash_table.h"
#include "math/matrix.h"

namespace fvae {
class ThreadPool;
}  // namespace fvae

namespace fvae::nn {

/// Growable per-feature parameter store backed by a DynamicHashTable
/// (paper §IV-C1).
///
/// Each raw 64-bit feature ID owns one dense row of `dim` floats (plus an
/// optional scalar bias). Rows are created lazily the first time an ID is
/// touched, with N(0, init_stddev^2) entries — this is exactly the paper's
/// "weights of this ID are randomly initialized and pushed into the hash
/// table" behaviour, and is what lets the model absorb new features during
/// training without a fixed vocabulary. A row's initial values are a pure
/// function of (table seed, key): one Kernels().normal_fill call, bitwise
/// the same on every ISA, so they do not depend on which keys came before
/// it, on the pool or on the CPU.
///
/// The table doubles as (a) the encoder's first-layer weights (embedding
/// sum over a user's features) and (b) each decoder field head's output
/// weights (one logit row per candidate feature).
///
/// Training uses sparse AdaGrad: gradients are accumulated per touched row
/// and applied in ApplyGradients, which also clears the accumulation state.
///
/// Storage: rows live in blocks of rows_per_block rows, the largest power
/// of two with rows_per_block * dim <= 2^16 (at least 1). A block holds
/// its rows' weights, then their AdaGrad accumulators, each as a
/// rows_per_block x dim array starting on a cache line. The row that opens
/// a block allocates it zeroed and untouched; nothing is ever reallocated
/// or copied, so rows never move and a span from Row() stays valid as the
/// table grows. Row() is a shift, a mask and a multiply.
///
/// Gradients live apart from the rows, in one slab of slots: slot s holds
/// the gradient (and bias gradient) of touched_rows()[s]. A row→slot map
/// numbers each row on its first touch since the last ApplyGradients, so
/// only the rows a step touches hold gradient storage. The slab is reused
/// across steps and only grows, on the calling thread; whoever first
/// touches a slot writes all of it (a new ScatterGrad slot is zeroed on
/// the worker that sums it). ApplyGradients reads the slab in slot order.
///
/// Threading: hash inserts and the touched/dirty bookkeeping belong to one
/// calling thread. The row-disjoint arithmetic (a deferred row's initial
/// draws, AddGrad, ScatterGrad's sums, the AdaGrad step) may run on pool
/// workers, with results bitwise identical to running it inline.
class EmbeddingTable {
 public:
  /// `dim` > 0; `with_bias` adds a scalar bias per row.
  EmbeddingTable(size_t dim, bool with_bias, float init_stddev,
                 uint64_t seed);

  /// Dense row index for `key`, creating and initializing it if new.
  uint32_t GetOrCreateRow(uint64_t key);

  /// Dense row index for `key`; a new row is inserted but its weights stay
  /// zero until InitPendingRows.
  uint32_t GetOrCreateRowDeferred(uint64_t key);

  /// Fills every row created by GetOrCreateRowDeferred since the last call
  /// with its key's draws, split by row over `pool` (null runs inline).
  void InitPendingRows(ThreadPool* pool);

  /// Model load, step one: inserts distinct `keys`, in the order Items()
  /// listed them when the table was saved, into an empty table, so that
  /// Items() lists them in that order again (DynamicHashTable::
  /// RestoreItems). The rows stay zero until RestoreRow fills them.
  void RestoreKeys(std::span<const uint64_t> keys);

  /// Sets `key`'s row to `weights` (and `bias`, for a table with biases),
  /// inserting the row if it is new. Model load's second step, and the
  /// distributed merge's write-back.
  void RestoreRow(uint64_t key, std::span<const float> weights, float bias);

  /// Dense row index for `key`, or nullopt for unseen keys.
  std::optional<uint32_t> FindRow(uint64_t key) const;

  /// Row weight vectors.
  std::span<float> Row(uint32_t row);
  std::span<const float> Row(uint32_t row) const;

  float bias(uint32_t row) const;
  void set_bias(uint32_t row, float value);

  size_t num_rows() const { return hash_.size(); }
  size_t dim() const { return dim_; }
  bool with_bias() const { return with_bias_; }

  /// Accumulates a gradient contribution for a row (and its bias):
  /// MarkTouched, then AddGrad.
  void AccumulateGrad(uint32_t row, std::span<const float> grad,
                      float bias_grad = 0.0f) {
    MarkTouched(row);
    AddGrad(row, grad, bias_grad);
  }

  /// Puts `row` on the touched list (first-touch order) if it is not yet,
  /// giving it a zeroed gradient slot.
  void MarkTouched(uint32_t row);

  /// Adds a gradient contribution to a row marked touched, without any
  /// bookkeeping: calls on distinct rows may run on different threads.
  /// Each element is one rounded add, exactly `g[d] += grad[d]`.
  void AddGrad(uint32_t row, std::span<const float> grad,
               float bias_grad = 0.0f);

  /// The gradient slots of rows touched together by TouchNewRows: row i's
  /// gradient is grads[i * dim, (i + 1) * dim) and its bias gradient
  /// bias_grads[i] (null for a table without biases).
  struct GradSlots {
    float* grads;
    float* bias_grads;
  };

  /// Puts `rows`, none of them touched since the last ApplyGradients (so
  /// also distinct), on the touched list in order and returns their slots,
  /// which are consecutive. The slots hold stale values: the caller writes
  /// every float of them before anything reads them. They stay valid until
  /// the next call that touches a new row.
  GradSlots TouchNewRows(std::span<const uint32_t> rows);

  /// One sparse input of a batch: batch item `item` used table row `row`
  /// with weight `value`.
  struct SparseRef {
    uint32_t item;
    uint32_t row;
    float value;
  };

  /// Adds value * grads.Row(item) to each ref's row, leaving every row
  /// gradient and the touched order exactly as one AccumulateGrad call per
  /// ref, in `refs` order, would. A stable counting sort transposes the
  /// refs into per-slot lists on this thread; the slots are then split over
  /// `pool` (null runs inline), each zeroing itself if it is new and
  /// summing its terms in `refs` order.
  void ScatterGrad(std::span<const SparseRef> refs, const Matrix& grads,
                   ThreadPool* pool);

  /// AdaGrad update over all rows touched since the last call, then resets
  /// the accumulated gradients. The per-row steps (the adagrad_step kernel)
  /// are split over `pool` (null runs inline); the dirty list is kept in
  /// touched order either way. `epsilon` guards the adaptive denominator.
  void ApplyGradients(float learning_rate, ThreadPool* pool = nullptr,
                      float epsilon = 1e-8f);

  /// Rows touched (AccumulateGrad, MarkTouched, ScatterGrad) since the last
  /// ApplyGradients, in first-touch order (for tests).
  const std::vector<uint32_t>& touched_rows() const { return touched_; }

  /// The row's accumulated gradient: its slot while the row is touched
  /// (valid until the next call that touches a new row), else all zero.
  std::span<const float> RowGrad(uint32_t row) const;
  /// The row's accumulated bias gradient (tables with biases); 0 for a row
  /// not touched since the last ApplyGradients.
  float bias_grad(uint32_t row) const;

  /// All (key, row) pairs currently in the table (model save, full
  /// softmax candidates).
  std::vector<std::pair<uint64_t, uint32_t>> Items() const {
    return hash_.Items();
  }

  /// Raw key that owns `row` (rows are created in insertion order).
  uint64_t KeyOfRow(uint32_t row) const;

  /// Rows modified by ApplyGradients since the last TakeDirtyRows call.
  /// The distributed trainer uses this for delta synchronization: only
  /// rows that actually changed are exchanged between replicas.
  std::vector<uint32_t> TakeDirtyRows();

  /// AdaGrad accumulator row, for checkpointing (core/model_io.h).
  std::span<const float> AdagradRow(uint32_t row) const;
  float adagrad_bias(uint32_t row) const;

  /// Restores a row's checkpointed AdaGrad accumulators so resumed
  /// training takes the same adaptive step sizes as the original run.
  void RestoreAdagradRow(uint32_t row, std::span<const float> accum,
                         float bias_accum);

 private:
  /// Dense row index for `key`; `*inserted` says whether it is new. A new
  /// row gets zeroed storage and its key recorded, nothing more.
  uint32_t InsertKey(uint64_t key, bool* inserted);

  /// Zeroed storage and clear bookkeeping for `row`, the next new row.
  void AddRowStorage(uint32_t row);

  /// Gives untouched `row` the next slot and returns it; the slot's storage
  /// comes from GrowSlots.
  uint32_t NewSlot(uint32_t row);

  /// Grows the slab to at least `slots` slots, keeping the first `live`.
  void GrowSlots(size_t slots, size_t live);

  /// `row`'s weights. Its AdaGrad accumulators sit block_floats_ further
  /// on.
  float* Weights(uint32_t row) const {
    return blocks_[row >> row_shift_].weights + size_t(row & row_mask_) * dim_;
  }
  float* Accumulators(uint32_t row) const {
    return Weights(row) + block_floats_;
  }
  float* SlotGrad(size_t slot) const { return grad_slab_.get() + slot * dim_; }

  struct FreeDeleter {
    void operator()(float* p) const;
  };

  /// One block's calloc'd memory, and the first row's weights inside it,
  /// moved up to the next cache line.
  struct Block {
    std::unique_ptr<float[], FreeDeleter> memory;
    float* weights;
  };

  size_t dim_;
  bool with_bias_;
  float init_stddev_;
  uint64_t seed_;
  DynamicHashTable hash_;
  // rows_per_block = 1 << row_shift_.
  uint32_t row_shift_;
  uint32_t row_mask_;
  size_t block_floats_;  // rows_per_block * dim: one of a block's 2 arrays
  std::vector<Block> blocks_;
  std::vector<float> biases_;        // num_rows (if with_bias_)
  std::vector<float> adagrad_bias_;  // num_rows
  std::vector<uint64_t> keys_;       // row -> raw key
  std::vector<uint32_t> dirty_;      // rows updated since TakeDirtyRows
  std::vector<bool> is_dirty_;
  std::vector<uint32_t> pending_;    // rows awaiting InitPendingRows

  // The gradient slots: touched_[s] owns slot s, slot_of_row_ maps back
  // (kNoSlot for a row untouched since the last ApplyGradients).
  std::vector<uint32_t> touched_;
  std::vector<uint32_t> slot_of_row_;  // num_rows
  std::unique_ptr<float[], FreeDeleter> grad_slab_;  // slot_capacity_ x dim
  size_t slot_capacity_ = 0;
  std::vector<float> bias_grad_slab_;  // slot_capacity_ (if with_bias_)
  std::vector<float> zero_grad_;       // dim zeros: RowGrad of untouched rows

  // ScatterGrad's transpose, reused across calls: slot s owns
  // slot_terms_[slot_begin_[s], slot_begin_[s + 1]).
  struct SlotTerm {
    uint32_t item;
    float value;
  };
  std::vector<uint32_t> slot_begin_;
  std::vector<uint32_t> slot_fill_;
  std::vector<SlotTerm> slot_terms_;
};

}  // namespace fvae::nn

#endif  // FVAE_NN_EMBEDDING_H_
