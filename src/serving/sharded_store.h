#ifndef FVAE_SERVING_SHARDED_STORE_H_
#define FVAE_SERVING_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace fvae::serving {

/// Reader-concurrent in-memory embedding store, sharded by hashed user id —
/// the online module's store (Fig. 2), and the only one in the repository.
///
/// Each shard owns an independent hash map guarded by a shared_mutex, so
/// concurrent Gets on different (and, via shared locking, the same) shards
/// never contend on one global lock, and a Put only stalls readers of its
/// own shard. Hit/miss counters are per-shard relaxed atomics.
///
/// Save/Load are the offline dump (the paper's HDFS hand-off). File format
/// "FVEB" (little-endian): magic, uint32 version 2, uint32 dim, uint64
/// count, then count x (uint64 user_id, dim x float), then a CRC-32 footer
/// over the body. Save publishes via atomic rename, so a reload verifies
/// the checksum before it swaps a dump in; truncated or corrupt files load
/// as IoError, any other version as InvalidArgument.
class ShardedEmbeddingStore {
 public:
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : double(hits) / double(total);
    }
  };

  /// `num_shards` is clamped to at least 1.
  explicit ShardedEmbeddingStore(size_t num_shards = 16);

  ShardedEmbeddingStore(ShardedEmbeddingStore&&) = default;
  ShardedEmbeddingStore& operator=(ShardedEmbeddingStore&&) = default;

  /// Inserts or overwrites one embedding. All embeddings must share the
  /// dimension of the first Put. Thread-safe.
  void Put(uint64_t user_id, std::vector<float> embedding);

  /// Returns the embedding or nullopt, updating the shard's hit/miss
  /// counters. Thread-safe; takes the shard lock shared.
  std::optional<std::vector<float>> Get(uint64_t user_id) const FVAE_HOT;

  /// Membership probe without statistics side effects. Thread-safe.
  bool Contains(uint64_t user_id) const;

  /// Total entries across shards (locks each shard briefly).
  size_t size() const;

  /// Embedding dimension (0 until the first Put or a Load).
  size_t dim() const { return dim_->load(std::memory_order_acquire); }

  size_t num_shards() const { return shards_.size(); }

  /// Per-shard hit/miss/occupancy snapshot.
  std::vector<ShardStats> Stats() const;

  /// Writes every row to `path` as an FVEB v2 dump (atomic publish,
  /// failpoints `embedding_store.save.*`). Thread-safe: each shard is read
  /// under its reader lock, so rows Put during the save may or may not be
  /// included.
  Status Save(const std::string& path) const;

  /// Reads an FVEB v2 dump (failpoint `embedding_store.load`) into a
  /// fresh store of `num_shards` shards. dim() is the dump's, even when it
  /// holds no rows.
  static Result<ShardedEmbeddingStore> Load(const std::string& path,
                                            size_t num_shards = 16);

  /// Replaces every row with `fresh`'s, one shard at a time under that
  /// shard's writer lock; the old rows are freed after the lock is
  /// released. `fresh` must have the same shard count and, unless this
  /// store has no dim yet, the same dim. Readers see each key's old or
  /// new row, never a mix of rows.
  void ReplaceRows(ShardedEmbeddingStore fresh);

 private:
  struct Shard {
    // Short-held reader lock per shard — sharding exists precisely so this
    // lock is cheap on the hot path, hence exempt from the hot-lock check.
    mutable SharedMutex mutex FVAE_HOT_LOCK_EXEMPT;
    std::unordered_map<uint64_t, std::vector<float>> table
        FVAE_GUARDED_BY(mutex);
    mutable std::atomic<uint64_t> hits{0};
    mutable std::atomic<uint64_t> misses{0};
  };

  size_t ShardOf(uint64_t user_id) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  // unique_ptr keeps the store movable (atomics are not).
  std::unique_ptr<std::atomic<size_t>> dim_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_SHARDED_STORE_H_
