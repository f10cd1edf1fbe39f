#include "serving/embedding_service.h"

#include "obs/trace.h"

namespace fvae::serving {

EmbeddingService::EmbeddingService(ShardedEmbeddingStore store,
                                   const FvaeFoldInEncoder* encoder,
                                   EmbeddingServiceOptions options)
    : store_(std::move(store)),
      encoder_(encoder),
      telemetry_(options.metrics_registry) {}

std::optional<std::vector<float>> EmbeddingService::ReadStore(
    uint64_t user_id, const Stopwatch& watch) {
  telemetry_.requests.Increment();
  std::optional<std::vector<float>> embedding = store_.Get(user_id);
  if (embedding.has_value()) {
    telemetry_.store_hits.Increment();
    telemetry_.lookup_latency_us().Record(watch.ElapsedSeconds() * 1e6);
  }
  return embedding;
}

EmbeddingService::EmbeddingResult EmbeddingService::Lookup(
    uint64_t user_id) {
  Stopwatch watch;
  if (auto embedding = ReadStore(user_id, watch)) return *std::move(embedding);
  telemetry_.not_found.Increment();
  return Status::NotFound("user not materialized");
}

EmbeddingService::EmbeddingResult EmbeddingService::LookupOrEncode(
    uint64_t user_id, const core::RawUserFeatures& features) {
  Stopwatch watch;
  if (auto embedding = ReadStore(user_id, watch)) return *std::move(embedding);
  if (encoder_ == nullptr) {
    telemetry_.not_found.Increment();
    return Status::NotFound("user not materialized, no encoder");
  }
  std::vector<float> row;
  {
    obs::TraceSpan span("serving.fold_in.encode");
    row = encoder_->Encode(features);
  }
  store_.Put(user_id, row);
  telemetry_.fold_ins.Increment();
  telemetry_.batches.Increment();
  telemetry_.batched_users.Increment();
  telemetry_.foldin_latency_us().Record(watch.ElapsedSeconds() * 1e6);
  return row;
}

Status EmbeddingService::ReloadFromFile(const std::string& path) {
  FVAE_ASSIGN_OR_RETURN(
      ShardedEmbeddingStore fresh,
      ShardedEmbeddingStore::Load(path, store_.num_shards()));
  size_t served_dim = store_.dim();
  if (served_dim == 0 && encoder_ != nullptr) served_dim = encoder_->dim();
  if (served_dim != 0 && fresh.dim() != served_dim) {
    return Status::InvalidArgument(
        "dump " + path + " has dim " + std::to_string(fresh.dim()) +
        ", service serves dim " + std::to_string(served_dim));
  }
  store_.ReplaceRows(std::move(fresh));
  return Status::Ok();
}

std::string EmbeddingService::TelemetryJson() const {
  const auto shards = store_.Stats();
  return telemetry_.ToJson(&shards);
}

}  // namespace fvae::serving
