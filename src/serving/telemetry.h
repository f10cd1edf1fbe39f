#ifndef FVAE_SERVING_TELEMETRY_H_
#define FVAE_SERVING_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stopwatch.h"
#include "obs/metrics_registry.h"
#include "serving/sharded_store.h"

namespace fvae::serving {

/// Counters and latency histograms of the serving stack, registered in an
/// obs::MetricsRegistry under the `serving.` prefix. One instance belongs
/// to each EmbeddingService; everything is atomics / lock-free histograms,
/// so request threads update it on the hot path without contention.
/// Accordingly the class carries no capability annotations: there is no
/// lock to hold, and all members are individually thread-safe (the
/// cross-counter invariant below is eventually consistent, not a
/// snapshot).
///
/// Pass a registry (typically obs::MetricsRegistry::Global()) to surface
/// the serving metrics in process-wide dumps next to the training, data
/// and hash-table instruments; with no registry the instance owns a
/// private one, which keeps concurrent services (and tests) isolated.
///
/// Invariant maintained by the service:
///   requests == store_hits + fold_ins + rejected + deadline_expired
///             + not_found
/// (every request terminates in exactly one of those outcomes; the stress
/// test asserts it). Fold-in runs inline on the calling thread, with no
/// queue to bounce from or expire in, so `rejected` and `deadline_expired`
/// stay 0; they remain for the outcome invariant's readers.
class ServingTelemetry {
 private:
  // Declared before the instrument references below: members initialize in
  // declaration order, and the references bind into this registry.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

 public:
  explicit ServingTelemetry(obs::MetricsRegistry* registry = nullptr);
  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  /// The registry the instruments live in (owned or injected).
  obs::MetricsRegistry& registry() { return *registry_; }
  const obs::MetricsRegistry& registry() const { return *registry_; }

  // --- request outcome counters ---
  obs::Counter& requests;
  /// Served straight from the sharded store (hot users).
  obs::Counter& store_hits;
  /// Served by running the encoder on the raw field vector (cold users).
  obs::Counter& fold_ins;
  /// Turned away at admission (always 0: nothing is queued).
  obs::Counter& rejected;
  /// Expired before an answer (always 0: nothing waits).
  obs::Counter& deadline_expired;
  /// No embedding and no feature vector to fold in.
  obs::Counter& not_found;

  // --- encoder accounting: each fold-in encodes a batch of one ---
  obs::Counter& batches;
  obs::Counter& batched_users;

  /// End-to-end latency of store-hit answers, microseconds.
  LatencyHistogram& lookup_latency_us() { return lookup_latency_us_; }
  const LatencyHistogram& lookup_latency_us() const {
    return lookup_latency_us_;
  }
  /// End-to-end latency of fold-in answers (request -> embedding stored).
  LatencyHistogram& foldin_latency_us() { return foldin_latency_us_; }
  const LatencyHistogram& foldin_latency_us() const {
    return foldin_latency_us_;
  }

  /// Seconds since construction / ResetClock — the QPS denominator.
  double ElapsedSeconds() const {
    return double(MonotonicMicros() -
                  start_us_.load(std::memory_order_relaxed)) *
           1e-6;
  }
  /// Restarts the QPS clock. Safe against concurrent Qps() /
  /// ElapsedSeconds() readers: the time base is a single atomic
  /// start-timestamp.
  void ResetClock() {
    start_us_.store(MonotonicMicros(), std::memory_order_relaxed);
  }

  double Qps() const {
    const double s = ElapsedSeconds();
    return s > 0.0 ? double(requests.Value()) / s : 0.0;
  }

  double MeanBatchSize() const {
    const uint64_t b = batches.Value();
    return b == 0 ? 0.0 : double(batched_users.Value()) / double(b);
  }

  /// Full JSON snapshot; `shards` (optional) adds per-shard hit rates.
  std::string ToJson(
      const std::vector<ShardedEmbeddingStore::ShardStats>* shards) const;

 private:
  LatencyHistogram& lookup_latency_us_;
  LatencyHistogram& foldin_latency_us_;
  std::atomic<int64_t> start_us_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_TELEMETRY_H_
