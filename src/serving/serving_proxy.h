#ifndef FVAE_SERVING_SERVING_PROXY_H_
#define FVAE_SERVING_SERVING_PROXY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serving/embedding_store.h"
#include "serving/lru_cache.h"

namespace fvae::serving {

/// Model-serving proxy of the online module (Fig. 2): answers embedding
/// lookups from a hot LRU cache backed by the (HDFS stand-in) embedding
/// store, and tracks hit statistics.
///
/// Safe for concurrent callers: the cache and counters are guarded by one
/// mutex, so throughput is bounded by lock handoff. For the concurrent
/// serving stack (sharding, lock-free inline fold-in) use
/// EmbeddingService; this proxy remains the minimal single-store reference
/// implementation.
class ServingProxy {
 public:
  struct Stats {
    size_t requests = 0;
    size_t cache_hits = 0;
    size_t store_hits = 0;
    size_t misses = 0;
    /// Successful ReloadFromFile swaps (failed reloads don't count — the
    /// old store keeps serving).
    size_t reloads = 0;

    double CacheHitRate() const {
      return requests == 0 ? 0.0 : double(cache_hits) / double(requests);
    }
  };

  /// `store` must outlive the proxy.
  ServingProxy(const EmbeddingStore* store, size_t cache_capacity)
      : store_(store), cache_(cache_capacity) {}

  /// Looks up a user's embedding: cache first, then store (populating the
  /// cache on a store hit). nullopt for unknown users.
  std::optional<std::vector<float>> Lookup(uint64_t user_id)
      FVAE_EXCLUDES(mutex_) FVAE_HOT;

  /// Swaps in a fresh embedding dump written by EmbeddingStore::Save — the
  /// online module's "new day's embeddings landed on HDFS" step (Fig. 2).
  ///
  /// The file is parsed and checksum-verified entirely OUTSIDE the lock, so
  /// concurrent Lookups keep serving the old store for the whole load; only
  /// the pointer swap and cache invalidation hold the mutex. On any load
  /// error (missing file, torn write, bad CRC) the proxy is untouched and
  /// keeps serving the previous store — a crashed producer can never swap a
  /// torn dump in (kill-matrix-tested in serving_test).
  Status ReloadFromFile(const std::string& path) FVAE_EXCLUDES(mutex_);

  /// Consistent snapshot of the counters.
  Stats stats() const FVAE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  // Points at either the constructor-supplied store or owned_store_ after a
  // successful reload. Guarded: reload swaps it.
  const EmbeddingStore* store_ FVAE_GUARDED_BY(mutex_);
  // Cache/stats handoff only — held for map probes, never across file IO
  // (ReloadFromFile loads outside the lock), hence hot-check exempt.
  mutable Mutex mutex_ FVAE_HOT_LOCK_EXEMPT;
  std::unique_ptr<EmbeddingStore> owned_store_ FVAE_GUARDED_BY(mutex_);
  LruCache<uint64_t, std::vector<float>> cache_ FVAE_GUARDED_BY(mutex_);
  Stats stats_ FVAE_GUARDED_BY(mutex_);
};

}  // namespace fvae::serving

#endif  // FVAE_SERVING_SERVING_PROXY_H_
