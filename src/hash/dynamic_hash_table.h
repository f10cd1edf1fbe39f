#ifndef FVAE_HASH_DYNAMIC_HASH_TABLE_H_
#define FVAE_HASH_DYNAMIC_HASH_TABLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fvae {

/// Dynamic hash table mapping raw 64-bit feature IDs to dense row indices
/// (paper §IV-C1).
///
/// This is the structure that lets the FVAE encoder handle an *open* feature
/// vocabulary: when an unseen feature ID arrives during training, it is
/// assigned the next dense index (the embedding row is then lazily created
/// by the embedding layer), so the model grows with the data instead of
/// suffering the collisions of static feature hashing.
///
/// Implementation: open addressing with linear probing, power-of-two
/// capacity, max load factor 0.7, incremental doubling. Dense indices are
/// assigned 0, 1, 2, ... in insertion order and are never reused, which is
/// exactly what an embedding table needs.
///
/// Thread-compatible: concurrent readers are safe only with no concurrent
/// writer; the trainers shard or lock externally.
class DynamicHashTable {
 public:
  /// `initial_capacity` is rounded up to a power of two (minimum 16).
  explicit DynamicHashTable(size_t initial_capacity = 16);

  /// Returns the dense index for `key`, inserting a fresh one if absent.
  uint32_t GetOrInsert(uint64_t key);

  /// Returns the dense index for `key` or nullopt when the key is unknown.
  std::optional<uint32_t> Find(uint64_t key) const;

  /// True iff `key` has been inserted.
  bool Contains(uint64_t key) const { return Find(key).has_value(); }

  /// Number of distinct keys inserted so far (== next dense index).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Current number of slots (for load-factor tests).
  size_t capacity() const { return slots_.size(); }

  /// All (key, index) pairs, in slot order (an out-of-band sentinel key
  /// last).
  std::vector<std::pair<uint64_t, uint32_t>> Items() const;

  /// Fills an empty table with distinct `keys`, dense index i for keys[i].
  /// When `keys` is the key column of some table's Items() (a saved table
  /// read back), the table is rebuilt with that one's capacity and slot
  /// layout, so Items() lists the keys in the same order again; any other
  /// order is inserted key by key.
  void RestoreItems(std::span<const uint64_t> keys);

  /// Removes every entry; subsequent inserts restart dense indices at 0.
  void Clear();

 private:
  struct Slot {
    uint64_t key = kEmptyKey;
    uint32_t index = 0;
  };

  // Sentinel for unoccupied slots. A genuine key equal to the sentinel is
  // stored out-of-band (has_sentinel_key_), so any uint64 key is supported.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  static uint64_t Mix(uint64_t key);
  void Grow();
  /// RestoreItems' layout step at one capacity: false when no layout there
  /// lists `keys` in order.
  bool PlaceInSlotOrder(std::span<const uint64_t> keys, size_t capacity);
  size_t ProbeStart(uint64_t mixed) const {
    return mixed & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  bool has_sentinel_key_ = false;
  uint32_t sentinel_index_ = 0;
};

}  // namespace fvae

#endif  // FVAE_HASH_DYNAMIC_HASH_TABLE_H_
