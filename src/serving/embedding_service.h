#ifndef FVAE_SERVING_EMBEDDING_SERVICE_H_
#define FVAE_SERVING_EMBEDDING_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/fvae_model.h"
#include "serving/fold_in.h"
#include "serving/sharded_store.h"
#include "serving/telemetry.h"

namespace fvae::serving {

struct EmbeddingServiceOptions {
  /// Shards of the materialized-embedding store.
  size_t num_shards = 16;
  /// Registry the service's telemetry registers into. Null (default) gives
  /// the service a private registry; pass &obs::MetricsRegistry::Global()
  /// to surface serving metrics in process-wide snapshots.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

/// In-process front-end of the online module (Fig. 2): the look-alike
/// system's view of user embeddings under concurrent traffic.
///
/// Request path, all on the calling thread:
///   1. sharded store Get            — hot users, reader-concurrent;
///   2. on miss, fold-in encode      — one amortised encoder pass over the
///      raw field vector (lock-free, so callers encode in parallel), the
///      result materialized into the store so the user is hot from then on.
/// Nothing is queued, so there is no admission queue to overflow and no
/// deadline to expire: a caller that offers more load than the encoders
/// absorb is slowed by its own transport (the RPC server's read-pause
/// backpressure).
///
/// All public methods are safe for concurrent callers. The service holds
/// no locks of its own: every member is either set in the constructor and
/// immutable afterwards (`encoder_`) or owns its synchronization (`store_`
/// is per-shard reader/writer-locked and capability-annotated,
/// `telemetry_` is lock-free atomics). Adding mutable service-level state
/// requires a `common::Mutex` with `FVAE_GUARDED_BY`
/// (docs/ARCHITECTURE.md §7).
class EmbeddingService {
 public:
  using EmbeddingResult = Result<std::vector<float>>;

  /// `store` seeds the materialized embeddings (moved in). `encoder` may be
  /// null — the service then answers store lookups only — and must outlive
  /// the service.
  EmbeddingService(ShardedEmbeddingStore store,
                   const FvaeFoldInEncoder* encoder,
                   EmbeddingServiceOptions options = {});

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Store-only lookup (no fold-in): kNotFound for unmaterialized users.
  EmbeddingResult Lookup(uint64_t user_id);

  /// Full serving path: a store hit answers from the store; a miss folds
  /// the raw field vector in on the calling thread (traced as the
  /// `serving.fold_in.encode` span) and materializes the result.
  EmbeddingResult LookupOrEncode(uint64_t user_id,
                                 const core::RawUserFeatures& features);

  /// Swaps in a fresh embedding dump written by ShardedEmbeddingStore::Save
  /// — the online module's "new day's embeddings landed on HDFS" step
  /// (Fig. 2). The dump is read and CRC-checked into a fresh store with this
  /// service's shard count while no lock is held, then swapped in shard by
  /// shard under each shard's writer lock (ShardedEmbeddingStore::
  /// ReplaceRows). On any error — missing file, torn write, bad CRC, or a
  /// dim other than the one served (the store's, or the encoder's while the
  /// store is empty) — nothing is swapped and the old rows keep serving.
  ///
  /// Semantics:
  ///   - a reload replaces every row: keys absent from the dump are gone,
  ///     including users folded in since the last dump;
  ///   - concurrent readers see each key's old row or its new row, never a
  ///     torn one (a shard swaps whole under its writer lock);
  ///   - a fold-in that races the swap may land in either map: before its
  ///     shard swaps (then the dump's row, or no row, replaces it) or after
  ///     (then it stays until the next reload).
  /// Reloads must not overlap each other; run them from one thread.
  Status ReloadFromFile(const std::string& path);

  const ShardedEmbeddingStore& store() const { return store_; }
  ServingTelemetry& telemetry() { return telemetry_; }
  const ServingTelemetry& telemetry() const { return telemetry_; }

  /// Telemetry + per-shard stats as one JSON object.
  std::string TelemetryJson() const;

 private:
  /// The store read both paths start with: counts the request and, on a
  /// hit, the hit and its latency since `watch` started.
  std::optional<std::vector<float>> ReadStore(uint64_t user_id,
                                              const Stopwatch& watch);

  ShardedEmbeddingStore store_;
  const FvaeFoldInEncoder* encoder_;
  ServingTelemetry telemetry_;
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_EMBEDDING_SERVICE_H_
