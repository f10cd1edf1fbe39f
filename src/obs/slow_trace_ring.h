#ifndef FVAE_OBS_SLOW_TRACE_RING_H_
#define FVAE_OBS_SLOW_TRACE_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fvae::obs {

/// Tail-based slow-request capture: a fixed-capacity, lock-free ring of
/// completed request summaries, written by the server's event-loop threads
/// whenever a request exceeds the latency threshold or finishes with a
/// non-ok status. The introspection plane reads it to answer "which
/// requests ate the p99" with real trace ids that can be grepped out of
/// the Chrome trace export.
///
/// Concurrency: a per-slot sequence counter is a seqlock (odd = write in
/// progress). Record() takes the next ring index and claims its slot with
/// a CAS of the sequence from even to odd; when a wrap race finds the slot
/// held by another writer, it moves on to the next index, so one slot
/// never has two writers. Snapshot() skips slots that are mid-write or
/// whose sequence moved while being read. Every data word is an atomic
/// (release stores, relaxed loads followed by an acquire fence) — lock-free
/// for writers, no locks anywhere, TSan-clean by construction.
class SlowTraceRing {
 public:
  struct Entry {
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;
    uint64_t tag = 0;
    int64_t start_us = 0;
    int64_t duration_us = 0;
    uint8_t verb = 0;
    uint8_t status = 0;  // WireStatus numeric value
  };

  explicit SlowTraceRing(size_t capacity = 64);

  SlowTraceRing(const SlowTraceRing&) = delete;
  SlowTraceRing& operator=(const SlowTraceRing&) = delete;

  /// Publishes one completed slow/errored request. Lock-free.
  void Record(const Entry& entry);

  /// Stable entries, sorted by duration descending.
  std::vector<Entry> Snapshot() const;

  /// Total entries ever recorded (including overwritten ones).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return slots_.size(); }

  /// Snapshot() as a JSON array:
  ///   [{"trace_id":"<hex>","tag":N,"verb":N,"status":N,
  ///     "start_us":N,"duration_us":N},...]
  std::string ToJson() const;

 private:
  struct Slot {
    std::atomic<uint64_t> sequence{0};  // even = stable, odd = writing
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> parent_span_id{0};
    std::atomic<uint64_t> tag{0};
    std::atomic<int64_t> start_us{0};
    std::atomic<int64_t> duration_us{0};
    std::atomic<uint32_t> verb{0};
    std::atomic<uint32_t> status{0};
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> recorded_{0};
};

}  // namespace fvae::obs

#endif  // FVAE_OBS_SLOW_TRACE_RING_H_
