#ifndef FVAE_OBS_TRACE_H_
#define FVAE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace fvae::obs {

/// Distributed-trace identity: which request (trace_id) and which span of
/// it (span_id) the current work belongs to. trace_id == 0 means "no
/// context" — spans recorded without one are process-local (the PR-3
/// behaviour) and serialize without trace annotations, byte-identical to
/// the old Chrome export.
///
/// Contexts cross process boundaries as the FVRP trace prefix
/// (docs/PROTOCOL.md): the sender writes its trace_id and current span_id;
/// the receiver's spans adopt that span_id as their parent.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Mints a fresh span id (process-unique, never 0). Deliberately not a
/// random source: a splitmix64 walk over an atomic counter seeded from the
/// monotonic clock and pid gives cross-process uniqueness without touching
/// the banned nondeterminism surface (rand/random_device).
uint64_t MintSpanId();

/// Mints a root context: fresh trace_id, fresh root span_id.
TraceContext MintTraceContext();

/// The calling thread's ambient context ({0,0} when none is installed).
TraceContext CurrentTraceContext();
void SetCurrentTraceContext(const TraceContext& context);

/// RAII installer for the thread-ambient context; restores the previous
/// one on destruction. Used at propagation boundaries: the router installs
/// the minted root around a routed call, the RPC server installs the
/// wire-extracted context around dispatch so spans (the fold-in encode
/// included) inherit it without plumbing a parameter through every layer.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context)
      : previous_(CurrentTraceContext()) {
    SetCurrentTraceContext(context);
  }
  ~ScopedTraceContext() { SetCurrentTraceContext(previous_); }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// One completed span. `name` must be a string literal (stored by pointer,
/// never copied — the FVAE_TRACE_SCOPE macro guarantees this).
struct TraceEvent {
  const char* name;
  int64_t start_us;
  int64_t duration_us;
  uint32_t tid;
  /// Distributed identity; all zero for context-free spans.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// Aggregated statistics of one span name across all threads.
struct SpanProfile {
  std::string name;
  uint64_t count = 0;
  double total_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Process-wide span recorder.
///
/// Completed spans land in per-thread buffers: each thread registers its
/// own buffer on first use (cached in a thread_local, so the registration
/// lock is paid once per thread) and appends under that buffer's private
/// mutex — uncontended in steady state, since only the owner thread writes
/// and exporters read rarely. Alongside the raw events, every buffer keeps
/// a per-span-name duration histogram; Profile() merges them across
/// threads (Histogram::Merge) into count/total/p50/p99 rows.
///
/// Recording is off by default: a disabled recorder costs one relaxed
/// atomic load per span site. Exports:
///   - ChromeTraceJson()/WriteChromeTrace(): Chrome trace_event format
///     ("X" complete events), loadable in chrome://tracing or Perfetto;
///     context-carrying spans add an "args" object with hex trace/span ids
///     so one request's spans can be followed across processes;
///   - Profile()/ProfileText(): the aggregated per-span-name table;
///   - Events(): the raw merged event list (bench hop analysis).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span to the calling thread's buffer. No-op while
  /// disabled. `name` must be a string literal.
  void RecordSpan(const char* name, int64_t start_us, int64_t duration_us);

  /// As above, with an explicit distributed identity: `context` carries the
  /// span's own (trace_id, span_id); `parent_span_id` is the enclosing
  /// span (0 for roots). Used by code that cannot rely on the thread-
  /// ambient context (hedge arms, cross-thread completions).
  void RecordSpan(const char* name, int64_t start_us, int64_t duration_us,
                  const TraceContext& context, uint64_t parent_span_id);

  /// All buffered events as a Chrome trace_event JSON document.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// All buffered events, merged across threads, sorted by start time.
  std::vector<TraceEvent> Events() const;

  /// Per-span-name aggregate over all threads, sorted by total time
  /// descending.
  std::vector<SpanProfile> Profile() const;
  /// Profile() rendered as an aligned text table (empty string when no
  /// spans were recorded).
  std::string ProfileText() const;

  /// Buffered (not dropped) event count across all threads.
  uint64_t EventCount() const;
  /// Events discarded because a thread's buffer was full.
  uint64_t DroppedCount() const;

  /// Clears buffered events and profiles. Thread buffers stay registered
  /// (live threads hold cached pointers into them).
  void Reset();

  /// Per-thread event capacity; beyond it, new spans count as dropped.
  static constexpr size_t kMaxEventsPerThread = size_t{1} << 16;

 private:
  struct ThreadBuffer {
    ThreadBuffer(uint32_t tid_in, std::thread::id owner_in)
        : tid(tid_in), owner(owner_in) {}
    const uint32_t tid;
    const std::thread::id owner;
    // Owner-thread writes, rare exporter reads: effectively uncontended,
    // and its critical sections are a bounded push_back/map update with no
    // IO or nested locks — safe from server event-loop threads, which do
    // record spans (FVAE_LOOP_LOCK_EXEMPT).
    Mutex mutex FVAE_LOOP_LOCK_EXEMPT;
    std::vector<TraceEvent> events FVAE_GUARDED_BY(mutex);
    uint64_t dropped FVAE_GUARDED_BY(mutex) = 0;
    /// Span durations by name, merged across threads by Profile().
    std::map<std::string, LatencyHistogram> profile FVAE_GUARDED_BY(mutex);
  };

  /// The calling thread's buffer, registered on first use.
  ThreadBuffer& LocalBuffer();

  /// Process-unique instance id (never 0). Thread-local buffer caches key
  /// on this rather than on `this`: a new recorder allocated at a dead
  /// recorder's address must not hit the stale cache entry.
  static uint64_t NextId();

  const uint64_t id_ = NextId();
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_ FVAE_LOOP_LOCK_EXEMPT;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ FVAE_GUARDED_BY(mutex_);
};

/// RAII span: records [construction, destruction) into `recorder` (the
/// global one by default). End() closes the span early — useful when two
/// consecutive phases share a C++ scope (see FieldVae::ComputeGradients).
///
/// When a thread-ambient TraceContext is installed (and the recorder is
/// enabled), the span joins the trace: it inherits the trace_id, adopts
/// the ambient span as its parent, mints its own span_id, and installs
/// itself as the ambient context for its lifetime — so nested spans and
/// outbound RPCs issued inside it parent correctly. Without a context the
/// behaviour (and the serialized output) is exactly the PR-3 span.
///
/// Never construct on an FVAE_HOT path — RecordSpan locks and may
/// allocate (fvae_lint's `hot-trace` rule enforces this).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, TraceRecorder* recorder = nullptr)
      : recorder_(recorder != nullptr ? recorder
                                      : &TraceRecorder::Global()) {
    if (recorder_->enabled()) {
      name_ = name;
      start_us_ = MonotonicMicros();
      const TraceContext ambient = CurrentTraceContext();
      if (ambient.valid()) {
        parent_span_id_ = ambient.span_id;
        context_ = TraceContext{ambient.trace_id, MintSpanId()};
        previous_ = ambient;
        SetCurrentTraceContext(context_);
        installed_ = true;
      }
    }
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records the span now; the destructor becomes a no-op. Idempotent.
  void End() {
    if (name_ == nullptr) return;
    if (installed_) {
      SetCurrentTraceContext(previous_);
      installed_ = false;
    }
    recorder_->RecordSpan(name_, start_us_, MonotonicMicros() - start_us_,
                          context_, parent_span_id_);
    name_ = nullptr;
  }

  /// This span's identity ({0,0} when recording is disabled or no trace
  /// context was ambient at construction).
  const TraceContext& context() const { return context_; }

 private:
  TraceRecorder* recorder_;
  const char* name_ = nullptr;
  int64_t start_us_ = 0;
  TraceContext context_;
  TraceContext previous_;
  uint64_t parent_span_id_ = 0;
  bool installed_ = false;
};

#define FVAE_TRACE_CONCAT_INNER_(a, b) a##b
#define FVAE_TRACE_CONCAT_(a, b) FVAE_TRACE_CONCAT_INNER_(a, b)
/// Declares an anonymous TraceSpan covering the rest of the enclosing
/// scope: FVAE_TRACE_SCOPE("train.step");
#define FVAE_TRACE_SCOPE(name)                                      \
  ::fvae::obs::TraceSpan FVAE_TRACE_CONCAT_(fvae_trace_span_,       \
                                            __LINE__)(name)

}  // namespace fvae::obs

#endif  // FVAE_OBS_TRACE_H_
