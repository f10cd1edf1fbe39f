#ifndef FVAE_SERVING_LOAD_GEN_H_
#define FVAE_SERVING_LOAD_GEN_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/histogram.h"
#include "core/fvae_model.h"
#include "data/dataset.h"
#include "serving/embedding_service.h"
#include "serving/sharded_store.h"

namespace fvae::serving {

/// User `u`'s sparse field vector extracted from a dataset — the payload a
/// production caller would attach to a cold-user request.
core::RawUserFeatures RawFeaturesOf(const MultiFieldDataset& dataset,
                                    uint32_t user);

/// The offline module's inference step (Fig. 2): encodes `users` in
/// chunks into a fresh sharded store keyed by user index, ready to serve or
/// to Save as the embedding dump.
ShardedEmbeddingStore MaterializeEmbeddings(const core::FieldVae& model,
                                            const MultiFieldDataset& dataset,
                                            std::span<const uint32_t> users,
                                            size_t num_shards);

/// Closed-loop workload shape.
struct LoadGenOptions {
  size_t num_threads = 8;
  /// Requests each thread issues (and individually waits for — closed
  /// loop: one outstanding request per thread).
  size_t requests_per_thread = 1000;
  /// Probability a request targets the hot set; the rest are cold.
  double hot_fraction = 0.8;
  uint64_t seed = 1;
};

/// What the load generator observed from the client side.
struct LoadGenReport {
  double elapsed_seconds = 0.0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  /// Requests for never-seen users: each one is a fold-in.
  uint64_t cold_requests = 0;
  /// Client-observed end-to-end latency (issue -> answer), us.
  LatencyHistogram latency_us;

  double Qps() const {
    return elapsed_seconds > 0.0 ? double(ok + errors) / elapsed_seconds
                                 : 0.0;
  }
  /// One JSON object row: qps + latency percentiles.
  std::string Json() const;
};

/// Drives `service` with num_threads closed-loop clients over `dataset`.
/// Hot requests draw uniformly from `hot_ids`. Every cold request asks for
/// a user id never requested before in this process, so it always misses
/// the store and folds in, carrying the features of the next `cold_ids`
/// entry in a per-thread strided walk (wrapping as often as needed). Ids
/// index `dataset`, which supplies the raw field vectors; they are built
/// before each request's latency clock starts.
LoadGenReport RunClosedLoopLoad(EmbeddingService& service,
                                const MultiFieldDataset& dataset,
                                std::span<const uint32_t> hot_ids,
                                std::span<const uint32_t> cold_ids,
                                const LoadGenOptions& options);

}  // namespace fvae::serving

#endif  // FVAE_SERVING_LOAD_GEN_H_
