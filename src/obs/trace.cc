#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/atomic_file.h"

namespace fvae::obs {
namespace {

/// splitmix64 finalizer: turns a sequential counter into well-spread ids.
uint64_t Mix64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// Per-process id sequence. Seeded once from the monotonic clock and pid so
/// two processes minting concurrently (client + server in the loopback
/// smoke test) do not collide; sequential after that, mixed at use.
std::atomic<uint64_t>& IdSequence() {
  static std::atomic<uint64_t>* sequence = new std::atomic<uint64_t>(
      (static_cast<uint64_t>(::getpid()) << 32) ^
      static_cast<uint64_t>(MonotonicMicros()));
  return *sequence;
}

thread_local TraceContext tls_trace_context;

}  // namespace

uint64_t MintSpanId() {
  uint64_t id = 0;
  while (id == 0) {
    id = Mix64(IdSequence().fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

TraceContext MintTraceContext() {
  return TraceContext{MintSpanId(), MintSpanId()};
}

TraceContext CurrentTraceContext() { return tls_trace_context; }

void SetCurrentTraceContext(const TraceContext& context) {
  tls_trace_context = context;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

uint64_t TraceRecorder::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder::ThreadBuffer& TraceRecorder::LocalBuffer() {
  // One-entry cache: a thread overwhelmingly records into one recorder
  // (the global one), so the registration lock is paid once per thread.
  // Keyed on the recorder's unique id, not its address — addresses get
  // reused after a recorder dies, and the stale buffer pointer with them.
  struct Cache {
    uint64_t recorder_id = 0;  // ids start at 1: never a false hit
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.recorder_id == id_) return *cache.buffer;

  MutexLock lock(mutex_);
  const std::thread::id me = std::this_thread::get_id();
  for (const auto& buffer : buffers_) {
    if (buffer->owner == me) {
      cache = {id_, buffer.get()};
      return *cache.buffer;
    }
  }
  buffers_.push_back(std::make_unique<ThreadBuffer>(
      static_cast<uint32_t>(buffers_.size()), me));
  cache = {id_, buffers_.back().get()};
  return *cache.buffer;
}

void TraceRecorder::RecordSpan(const char* name, int64_t start_us,
                               int64_t duration_us) {
  RecordSpan(name, start_us, duration_us, TraceContext{}, 0);
}

void TraceRecorder::RecordSpan(const char* name, int64_t start_us,
                               int64_t duration_us,
                               const TraceContext& context,
                               uint64_t parent_span_id) {
  if (!enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mutex);
  if (buffer.events.size() < kMaxEventsPerThread) {
    buffer.events.push_back({name, start_us, duration_us, buffer.tid,
                             context.trace_id, context.span_id,
                             parent_span_id});
  } else {
    ++buffer.dropped;
  }
  auto it = buffer.profile.find(name);
  if (it == buffer.profile.end()) {
    it = buffer.profile.try_emplace(name).first;
  }
  it->second.Record(double(duration_us));
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mutex);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return events;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"fvae\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u",
                  i == 0 ? "" : ",", e.name,
                  static_cast<long long>(e.start_us),
                  static_cast<long long>(e.duration_us), e.tid);
    out += buf;
    if (e.trace_id != 0) {
      // Hex strings, not numbers: 64-bit ids do not survive a JSON
      // consumer's double conversion.
      std::snprintf(buf, sizeof(buf),
                    ",\"args\":{\"trace_id\":\"%016llx\","
                    "\"span_id\":\"%016llx\","
                    "\"parent_span_id\":\"%016llx\"}",
                    static_cast<unsigned long long>(e.trace_id),
                    static_cast<unsigned long long>(e.span_id),
                    static_cast<unsigned long long>(e.parent_span_id));
      out += buf;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  AtomicFileWriter writer;
  FVAE_RETURN_IF_ERROR(writer.Open(path, "obs.trace_export"));
  writer.stream() << ChromeTraceJson();
  return writer.Commit();
}

std::vector<SpanProfile> TraceRecorder::Profile() const {
  // Merge the per-thread duration histograms name by name; all of them use
  // the default bucket geometry, which Histogram::Merge requires.
  std::map<std::string, LatencyHistogram> merged;
  {
    MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mutex);
      for (const auto& [name, histogram] : buffer->profile) {
        auto it = merged.find(name);
        if (it == merged.end()) it = merged.try_emplace(name).first;
        it->second.Merge(histogram);
      }
    }
  }
  std::vector<SpanProfile> profiles;
  profiles.reserve(merged.size());
  for (const auto& [name, histogram] : merged) {
    SpanProfile p;
    p.name = name;
    p.count = histogram.Count();
    p.total_us = histogram.Sum();
    p.p50_us = histogram.Percentile(50.0);
    p.p99_us = histogram.Percentile(99.0);
    profiles.push_back(std::move(p));
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const SpanProfile& a, const SpanProfile& b) {
              return a.total_us > b.total_us;
            });
  return profiles;
}

std::string TraceRecorder::ProfileText() const {
  const std::vector<SpanProfile> profiles = Profile();
  if (profiles.empty()) return "";
  std::string out =
      "span                                  count     total_ms    p50_us"
      "    p99_us\n";
  char buf[192];
  for (const SpanProfile& p : profiles) {
    std::snprintf(buf, sizeof(buf), "%-36s %6llu %12.1f %9.1f %9.1f\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.count),
                  p.total_us / 1e3, p.p50_us, p.p99_us);
    out += buf;
  }
  return out;
}

uint64_t TraceRecorder::EventCount() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

uint64_t TraceRecorder::DroppedCount() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void TraceRecorder::Reset() {
  MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
    buffer->profile.clear();
  }
}

}  // namespace fvae::obs
