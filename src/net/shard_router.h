#ifndef FVAE_NET_SHARD_ROUTER_H_
#define FVAE_NET_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/fvae_model.h"
#include "net/net_metrics.h"
#include "net/rpc_client.h"
#include "net/wire.h"

namespace fvae::net {

struct ShardRouterOptions {
  /// Virtual nodes per endpoint on the hash ring. More nodes smooth the
  /// key distribution; 64 keeps the max/min shard load within ~10%.
  size_t virtual_nodes = 64;
  int connect_timeout_ms = 1000;
  /// Per-call budget (relative micros) covering send + wait + failover.
  int64_t call_deadline_micros = 1'000'000;

  /// Hedged retries: after the hedge delay with no response, the same
  /// request is duplicated to the next ring candidate and the first answer
  /// wins. The delay tracks the observed p99 call latency (clamped below)
  /// once enough samples exist.
  bool enable_hedging = true;
  int64_t hedge_min_delay_micros = 2'000;
  int64_t hedge_max_delay_micros = 100'000;
  uint64_t hedge_min_samples = 64;

  /// Per-shard circuit breaker: this many consecutive transport failures
  /// open the breaker for `breaker_open_micros`, during which the shard is
  /// deprioritized in candidate order (still used as a last resort).
  uint32_t breaker_failure_threshold = 3;
  int64_t breaker_open_micros = 500'000;

  /// Background health prober; a passing probe closes the breaker early.
  bool enable_health_checks = true;
  int64_t health_period_micros = 100'000;
};

/// Client-side consistent-hash router over N `fvae serve` endpoints.
///
/// User IDs map to shards via a ring of FNV-hashed virtual nodes, so adding
/// or removing an endpoint remaps only ~1/N of the key space. Every call
/// walks the candidate list (ring successors, breaker-open shards last):
/// transport failures fail over to the next candidate; slow responses are
/// hedged to it after a p99-derived delay. Wire-level error statuses
/// (kNotFound, kDeadlineExceeded, ...) are successful transport — they
/// prove the shard is alive and terminate the walk.
///
/// Thread-safe: the ring is immutable after construction, per-shard state
/// is atomics + a mutex-guarded channel pool, and metrics are lock-free.
class ShardRouterClient {
 public:
  ShardRouterClient(std::vector<std::string> endpoints,
                    ShardRouterOptions options = {},
                    obs::MetricsRegistry* registry = nullptr);
  ~ShardRouterClient();

  ShardRouterClient(const ShardRouterClient&) = delete;
  ShardRouterClient& operator=(const ShardRouterClient&) = delete;

  // Blocking round trips (candidate walk + hedge polling): never call
  // from an event-loop thread.
  FVAE_MAY_BLOCK Result<std::vector<float>> Lookup(uint64_t user_id);
  FVAE_MAY_BLOCK Result<std::vector<float>> EncodeFoldIn(
      uint64_t user_id, const core::RawUserFeatures& features);

  /// The shard a user's key maps to (ring owner, ignoring health).
  size_t OwnerOf(uint64_t user_id) const;
  /// Ring successors of the owner: the failover/hedge order for this key.
  std::vector<size_t> CandidatesFor(uint64_t user_id) const;

  size_t num_shards() const { return shards_.size(); }
  const std::string& endpoint(size_t shard) const {
    return shards_[shard]->endpoint;
  }
  /// Breaker currently open for this shard.
  bool BreakerOpen(size_t shard) const;

  RouterMetrics& metrics() { return metrics_; }

 private:
  struct Shard {
    explicit Shard(std::string ep) : endpoint(ep), pool(std::move(ep)) {}
    std::string endpoint;
    ChannelPool pool;
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<int64_t> open_until_us{0};
  };

  /// One request over the candidate walk with hedging; decoded embedding
  /// or the last error.
  FVAE_MAY_BLOCK Result<std::vector<float>> RoutedCall(
      uint64_t user_id, Verb verb, const std::vector<uint8_t>& payload);

  /// Sends on `primary`; hedges to `hedge_shard` (if >= 0) after the hedge
  /// delay; first response wins. Transport-level result.
  FVAE_MAY_BLOCK Result<Frame> CallWithHedge(
      size_t primary, int hedge_shard, Verb verb,
      const std::vector<uint8_t>& payload, int64_t deadline_micros);

  int64_t HedgeDelayMicros() const;
  void RecordSuccess(size_t shard);
  void RecordFailure(size_t shard);
  void HealthLoop();

  ShardRouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Sorted (hash, shard) ring; immutable after construction.
  std::vector<std::pair<uint64_t, size_t>> ring_;
  RouterMetrics metrics_;

  std::atomic<bool> stopping_{false};
  // Declared rank for the net subsystem's lock DAG: if prober pacing ever
  // nests with a shard's pool (today the probe walk runs unlocked), the
  // pacing lock comes first — a pool mutex must never be held while
  // touching prober state (RecordSuccess/Failure stay atomics-only).
  Mutex health_mutex_ FVAE_ACQUIRED_BEFORE(ChannelPool::mutex_);
  CondVar health_cv_;
  std::thread health_thread_;
};

}  // namespace fvae::net

#endif  // FVAE_NET_SHARD_ROUTER_H_
