#include "hash/dynamic_hash_table.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fvae {

DynamicHashTable::DynamicHashTable(size_t initial_capacity) {
  size_t capacity = std::bit_ceil(std::max<size_t>(initial_capacity, 16));
  slots_.assign(capacity, Slot{});
}

uint64_t DynamicHashTable::Mix(uint64_t key) {
  // splitmix64 finalizer: full-avalanche mixing of the raw ID. Also remaps
  // the empty-slot sentinel onto a different probe sequence start.
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint32_t DynamicHashTable::GetOrInsert(uint64_t key) {
  if (key == kEmptyKey) {
    if (!has_sentinel_key_) {
      has_sentinel_key_ = true;
      sentinel_index_ = static_cast<uint32_t>(size_);
      ++size_;
    }
    return sentinel_index_;
  }
  if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
  size_t pos = ProbeStart(Mix(key));
  for (;;) {
    Slot& slot = slots_[pos];
    if (slot.key == kEmptyKey) {
      slot.key = key;
      slot.index = static_cast<uint32_t>(size_);
      ++size_;
      static obs::Counter& inserts_counter =
          obs::MetricsRegistry::Global().Counter("hash.inserts");
      inserts_counter.Increment();
      return slot.index;
    }
    if (slot.key == key) return slot.index;
    pos = (pos + 1) & (slots_.size() - 1);
  }
}

std::optional<uint32_t> DynamicHashTable::Find(uint64_t key) const {
  if (key == kEmptyKey) {
    if (has_sentinel_key_) return sentinel_index_;
    return std::nullopt;
  }
  size_t pos = ProbeStart(Mix(key));
  for (;;) {
    const Slot& slot = slots_[pos];
    if (slot.key == kEmptyKey) return std::nullopt;
    if (slot.key == key) return slot.index;
    pos = (pos + 1) & (slots_.size() - 1);
  }
}

std::vector<std::pair<uint64_t, uint32_t>> DynamicHashTable::Items() const {
  std::vector<std::pair<uint64_t, uint32_t>> items;
  items.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.key != kEmptyKey) items.emplace_back(slot.key, slot.index);
  }
  if (has_sentinel_key_) items.emplace_back(kEmptyKey, sentinel_index_);
  return items;
}

void DynamicHashTable::RestoreItems(std::span<const uint64_t> keys) {
  FVAE_CHECK(size_ == 0) << "RestoreItems needs an empty table";
  const bool has_sentinel = !keys.empty() && keys.back() == kEmptyKey;
  const std::span<const uint64_t> slotted =
      keys.first(keys.size() - (has_sentinel ? 1 : 0));
  // The listed table grew before any insert that would pass load 0.7. A
  // sentinel key inserted before its last slotted key counted towards that
  // load, so with a sentinel both capacities are candidates.
  for (size_t counted = slotted.size();
       counted <= slotted.size() + (has_sentinel ? 1 : 0); ++counted) {
    size_t capacity = slots_.size();
    while (counted * 10 > capacity * 7) capacity *= 2;
    if (PlaceInSlotOrder(slotted, capacity)) {
      size_ = slotted.size();
      if (has_sentinel) {
        has_sentinel_key_ = true;
        sentinel_index_ = static_cast<uint32_t>(size_++);
      }
      return;
    }
  }
  for (uint64_t key : keys) GetOrInsert(key);
}

bool DynamicHashTable::PlaceInSlotOrder(std::span<const uint64_t> keys,
                                        size_t capacity) {
  const size_t mask = capacity - 1;
  if (keys.size() >= capacity) return false;
  for (uint64_t key : keys) {
    if (key == kEmptyKey) return false;
  }
  // Items() walks the slots upward, so the listing gives every key's slot
  // in ascending order, and slot = max(home, previous slot + 1) replays
  // linear probing. The one exception is the run of keys from slot 0 that
  // probed past the last slot and wrapped around: try growing lengths of
  // it, keeping the first layout in which every key is found.
  constexpr size_t kMaxWrapped = 1024;
  std::vector<Slot> slots(capacity);
  std::vector<size_t> placed(keys.size());
  for (size_t wrapped = 0; wrapped <= std::min(keys.size(), kMaxWrapped);
       ++wrapped) {
    std::fill(slots.begin(), slots.end(), Slot{});
    size_t next = 0;
    bool fits = true;
    for (size_t i = 0; i < keys.size() && fits; ++i) {
      const size_t pos =
          i < wrapped ? i : std::max<size_t>(Mix(keys[i]) & mask, next);
      fits = pos <= mask;
      if (fits) {
        slots[pos] = {keys[i], static_cast<uint32_t>(i)};
        placed[i] = pos;
        next = pos + 1;
      }
    }
    // Valid when probing from each key's home crosses only occupied slots
    // holding other keys before it reaches the key's own.
    for (size_t i = 0; i < keys.size() && fits; ++i) {
      for (size_t pos = Mix(keys[i]) & mask; pos != placed[i];
           pos = (pos + 1) & mask) {
        if (slots[pos].key == kEmptyKey || slots[pos].key == keys[i]) {
          fits = false;
          break;
        }
      }
    }
    if (fits) {
      slots_ = std::move(slots);
      return true;
    }
  }
  return false;
}

void DynamicHashTable::Clear() {
  for (Slot& slot : slots_) slot = Slot{};
  size_ = 0;
  has_sentinel_key_ = false;
  sentinel_index_ = 0;
}

void DynamicHashTable::Grow() {
  FVAE_TRACE_SCOPE("hash.grow");
  Stopwatch grow_watch;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  for (const Slot& slot : old) {
    if (slot.key == kEmptyKey) continue;
    size_t pos = ProbeStart(Mix(slot.key));
    while (slots_[pos].key != kEmptyKey) {
      pos = (pos + 1) & (slots_.size() - 1);
    }
    slots_[pos] = slot;
  }
  // Tables are per-field, so the gauges reflect the most recently grown
  // table — a live sample of vocabulary growth, not a process-wide sum.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Counter("hash.grows").Increment();
  metrics.Histo("hash.grow_us").Record(grow_watch.ElapsedSeconds() * 1e6);
  metrics.Gauge("hash.size").Set(double(size_));
  metrics.Gauge("hash.capacity").Set(double(slots_.size()));
  metrics.Gauge("hash.load_factor")
      .Set(double(size_) / double(slots_.size()));
}

}  // namespace fvae
