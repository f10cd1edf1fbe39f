#ifndef FVAE_NET_NET_METRICS_H_
#define FVAE_NET_NET_METRICS_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "net/wire.h"
#include "obs/exemplars.h"
#include "obs/metrics_registry.h"
#include "obs/slow_trace_ring.h"

namespace fvae::net {

/// Server-side transport instruments, registered under `net.server.`.
/// Same lock-free design as serving::ServingTelemetry: references bound
/// once at construction, relaxed-atomic updates from the worker loops.
class ServerMetrics {
 private:
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

 public:
  explicit ServerMetrics(obs::MetricsRegistry* registry = nullptr);
  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  obs::MetricsRegistry& registry() { return *registry_; }

  obs::Counter& connections_accepted;
  obs::Counter& connections_closed;
  /// Connections dropped for protocol violations (bad magic/CRC/length).
  obs::Counter& protocol_errors;
  /// Connections kicked by the idle/slow-loris timeout.
  obs::Counter& idle_timeouts;
  obs::Counter& frames_rx;
  obs::Counter& frames_tx;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  /// Read-side pauses while a connection's write buffer is over watermark.
  obs::Counter& backpressure_pauses;

  /// Currently open connections.
  void UpdateOpenConnections(double delta) { open_connections_.Add(delta); }
  double open_connections() const { return open_connections_.Value(); }

  /// Server-side request latency (frame in -> response queued), micros.
  LatencyHistogram& request_latency_us() { return request_latency_us_; }

  /// One latency histogram per verb; Introspect serves the per-verb p50/p99
  /// the `fvae top` dashboard renders.
  static constexpr size_t kNumVerbs =
      static_cast<size_t>(Verb::kIntrospect) + 1;
  LatencyHistogram& verb_latency_us(Verb verb) {
    return *verb_latency_us_[static_cast<size_t>(verb)];
  }

  /// Tail-based slow/errored request capture (lock-free ring).
  obs::SlowTraceRing& slow_traces() { return slow_traces_; }
  const obs::SlowTraceRing& slow_traces() const { return slow_traces_; }

  /// Trace exemplars for the aggregate request-latency histogram.
  obs::ExemplarStore& request_exemplars() { return request_exemplars_; }

  std::string ToJson() const;

 private:
  obs::Gauge& open_connections_;
  LatencyHistogram& request_latency_us_;
  std::array<LatencyHistogram*, kNumVerbs> verb_latency_us_;
  obs::ExemplarStore& request_exemplars_;
  obs::SlowTraceRing slow_traces_;
};

/// Client/router-side instruments, registered under `net.client.` plus
/// dynamic per-shard counters `net.client.shard<i>.requests`.
class RouterMetrics {
 private:
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

 public:
  /// `num_shards` fixes the per-shard counter set at construction so hot
  /// paths never build metric names.
  explicit RouterMetrics(size_t num_shards,
                         obs::MetricsRegistry* registry = nullptr);
  RouterMetrics(const RouterMetrics&) = delete;
  RouterMetrics& operator=(const RouterMetrics&) = delete;

  obs::MetricsRegistry& registry() { return *registry_; }

  obs::Counter& requests;
  obs::Counter& failures;
  /// Hedged (duplicate) sends issued after the p99-derived delay.
  obs::Counter& hedges;
  /// Requests won by the hedge rather than the primary.
  obs::Counter& hedge_wins;
  /// Requests retried on the next ring candidate after a shard failure.
  obs::Counter& failovers;
  /// Breaker state transitions to open.
  obs::Counter& breaker_trips;
  obs::Counter& health_probes;
  obs::Counter& health_failures;

  obs::Counter& shard_requests(size_t shard) { return *shard_requests_[shard]; }
  obs::Counter& shard_errors(size_t shard) { return *shard_errors_[shard]; }
  size_t num_shards() const { return shard_requests_.size(); }

  /// End-to-end call latency through the router, micros.
  LatencyHistogram& call_latency_us() { return call_latency_us_; }
  const LatencyHistogram& call_latency_us() const { return call_latency_us_; }

 private:
  LatencyHistogram& call_latency_us_;
  std::vector<obs::Counter*> shard_requests_;
  std::vector<obs::Counter*> shard_errors_;
};

}  // namespace fvae::net

#endif  // FVAE_NET_NET_METRICS_H_
