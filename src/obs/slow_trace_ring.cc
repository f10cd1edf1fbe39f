#include "obs/slow_trace_ring.h"

#include <algorithm>

#include "common/string_util.h"

namespace fvae::obs {

SlowTraceRing::SlowTraceRing(size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

void SlowTraceRing::Record(const Entry& entry) {
  // Claim a slot by moving its sequence from even (stable) to odd
  // (writing). A slot another writer holds is skipped for the next index,
  // so exactly one writer fills a slot between two even sequences.
  Slot* slot = nullptr;
  uint64_t sequence = 0;
  do {
    slot = &slots_[head_.fetch_add(1, std::memory_order_relaxed) %
                   slots_.size()];
    sequence = slot->sequence.load(std::memory_order_relaxed);
  } while ((sequence & 1) != 0 ||
           !slot->sequence.compare_exchange_strong(
               sequence, sequence + 1, std::memory_order_acquire,
               std::memory_order_relaxed));
  // Release field stores pair with the reader's acquire fence: a reader
  // that loads any of these values then loads at least the odd sequence
  // on its second sequence load, and drops the slot.
  slot->trace_id.store(entry.trace_id, std::memory_order_release);
  slot->parent_span_id.store(entry.parent_span_id, std::memory_order_release);
  slot->tag.store(entry.tag, std::memory_order_release);
  slot->start_us.store(entry.start_us, std::memory_order_release);
  slot->duration_us.store(entry.duration_us, std::memory_order_release);
  slot->verb.store(entry.verb, std::memory_order_release);
  slot->status.store(entry.status, std::memory_order_release);
  slot->sequence.store(sequence + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SlowTraceRing::Entry> SlowTraceRing::Snapshot() const {
  std::vector<Entry> entries;
  entries.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t before = slot.sequence.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    Entry entry;
    entry.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    entry.parent_span_id =
        slot.parent_span_id.load(std::memory_order_relaxed);
    entry.tag = slot.tag.load(std::memory_order_relaxed);
    entry.start_us = slot.start_us.load(std::memory_order_relaxed);
    entry.duration_us = slot.duration_us.load(std::memory_order_relaxed);
    entry.verb = static_cast<uint8_t>(
        slot.verb.load(std::memory_order_relaxed));
    entry.status = static_cast<uint8_t>(
        slot.status.load(std::memory_order_relaxed));
    // Keeps the field loads above from sinking below the second sequence
    // load: a field written by a later Record shows up as a moved sequence.
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t after = slot.sequence.load(std::memory_order_relaxed);
    if (after != before) continue;  // overwritten while reading
    entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.duration_us > b.duration_us;
            });
  return entries;
}

std::string SlowTraceRing::ToJson() const {
  const std::vector<Entry> entries = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out += StrFormat(
        "%s{\"trace_id\":\"%016llx\",\"tag\":%llu,\"verb\":%u,"
        "\"status\":%u,\"start_us\":%lld,\"duration_us\":%lld}",
        i == 0 ? "" : ",",
        static_cast<unsigned long long>(e.trace_id),
        static_cast<unsigned long long>(e.tag),
        static_cast<unsigned>(e.verb), static_cast<unsigned>(e.status),
        static_cast<long long>(e.start_us),
        static_cast<long long>(e.duration_us));
  }
  out += "]";
  return out;
}

}  // namespace fvae::obs
