#include "distributed/parallel_trainer.h"

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <unordered_set>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/trainer.h"
#include "data/batching.h"
#include "math/kernels/kernel_table.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fvae::distributed {
namespace {

/// CPU seconds the calling thread has run. The simulator is serial, so this
/// clock charges a round or merge its own work, not the host's other load.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Delta synchronization of one embedding table, `tables[r]` being replica
/// r's copy. Only rows some replica updated since the last barrier are
/// exchanged (the realistic parameter-server behaviour, and what keeps the
/// sync cost proportional to the recent work, not to the full table). A
/// key's merged row is the mean over the replicas that know it, and every
/// replica adopts it. Keys merge in first-seen order (replica by replica,
/// each in dirty order), so a replica that lacks a key inserts it at the
/// same row in every run.
void MergeDirtyRows(const std::vector<nn::EmbeddingTable*>& tables) {
  std::vector<uint64_t> keys;
  std::unordered_set<uint64_t> seen;
  for (nn::EmbeddingTable* table : tables) {
    for (uint32_t row : table->TakeDirtyRows()) {
      const uint64_t key = table->KeyOfRow(row);
      if (seen.insert(key).second) keys.push_back(key);
    }
  }

  // Sums in replica order; 1 * x is exact, so each element is the plain
  // float sum of the replicas' values. rows[r * n + i] keeps replica r's
  // row of key i (kMissing when it lacks the key) for the write-back.
  constexpr uint32_t kMissing = UINT32_MAX;
  const size_t n = keys.size();
  const size_t dim = tables[0]->dim();
  const KernelTable& kernels = Kernels();
  std::vector<float> sum(n * dim, 0.0f);
  std::vector<float> bias(n, 0.0f);
  std::vector<uint32_t> count(n, 0);
  std::vector<uint32_t> rows(tables.size() * n, kMissing);
  for (size_t r = 0; r < tables.size(); ++r) {
    const nn::EmbeddingTable& table = *tables[r];
    for (size_t i = 0; i < n; ++i) {
      const auto row = table.FindRow(keys[i]);
      if (!row.has_value()) continue;
      rows[r * n + i] = *row;
      kernels.scale_add(1.0f, table.Row(*row).data(), &sum[i * dim], dim);
      if (table.with_bias()) bias[i] += table.bias(*row);
      ++count[i];
    }
  }

  // Rows never move, so a replica that knows the key is written in place;
  // one that lacks it inserts the key, in key-major order.
  for (size_t i = 0; i < n; ++i) {
    const float scale = 1.0f / float(count[i]);
    const std::span<float> merged(&sum[i * dim], dim);
    for (float& v : merged) v *= scale;
    bias[i] *= scale;
    for (size_t r = 0; r < tables.size(); ++r) {
      nn::EmbeddingTable& table = *tables[r];
      const uint32_t row = rows[r * n + i];
      if (row == kMissing) {
        table.RestoreRow(keys[i], merged, bias[i]);
        continue;
      }
      std::copy(merged.begin(), merged.end(), table.Row(row).begin());
      if (table.with_bias()) table.set_bias(row, bias[i]);
    }
  }
}

}  // namespace

ParallelFvaeTrainer::ParallelFvaeTrainer(const core::FvaeConfig& model_config,
                                         const DistributedConfig& config)
    : model_config_(model_config), config_(config) {
  FVAE_CHECK(config_.num_workers >= 1);
  FVAE_CHECK(config_.sync_every_batches >= 1);
}

core::FieldVae& ParallelFvaeTrainer::model() {
  FVAE_CHECK(!replicas_.empty()) << "Train must be called first";
  return *replicas_[0];
}

void ParallelFvaeTrainer::AverageReplicas() {
  const size_t num_replicas = replicas_.size();
  if (num_replicas < 2) return;
  FVAE_TRACE_SCOPE("distributed.merge");
  Stopwatch merge_watch;

  // Dense parameters: elementwise mean, broadcast back.
  std::vector<std::vector<Matrix*>> params(num_replicas);
  for (size_t r = 0; r < num_replicas; ++r) {
    params[r] = replicas_[r]->DenseParams();
    FVAE_CHECK(params[r].size() == params[0].size());
  }
  const float inv = 1.0f / float(num_replicas);
  for (size_t p = 0; p < params[0].size(); ++p) {
    Matrix& base = *params[0][p];
    for (size_t r = 1; r < num_replicas; ++r) {
      FVAE_CHECK(params[r][p]->size() == base.size());
      base.Add(*params[r][p]);
    }
    base.Scale(inv);
    for (size_t r = 1; r < num_replicas; ++r) *params[r][p] = base;
  }

  std::vector<nn::EmbeddingTable*> tables(num_replicas);
  for (size_t k = 0; k < replicas_[0]->num_fields(); ++k) {
    for (size_t r = 0; r < num_replicas; ++r) {
      tables[r] = &replicas_[r]->input_table(k);
    }
    MergeDirtyRows(tables);
    for (size_t r = 0; r < num_replicas; ++r) {
      tables[r] = &replicas_[r]->output_table(k);
    }
    MergeDirtyRows(tables);
  }
  obs::MetricsRegistry::Global()
      .Histo("distributed.merge_us")
      .Record(merge_watch.ElapsedSeconds() * 1e6);
}

DistributedResult ParallelFvaeTrainer::Train(
    const MultiFieldDataset& dataset) {
  const size_t workers = config_.num_workers;
  replicas_.clear();
  for (size_t r = 0; r < workers; ++r) {
    // Identical dense init across replicas (same seed) so model averaging
    // starts from a consensus point.
    replicas_.push_back(
        std::make_unique<core::FieldVae>(model_config_, dataset.fields()));
  }

  // Round-robin user shards.
  std::vector<std::vector<uint32_t>> shards(workers);
  for (uint32_t u = 0; u < dataset.num_users(); ++u) {
    shards[u % workers].push_back(u);
  }
  for (const auto& shard : shards) {
    FVAE_CHECK(!shard.empty()) << "more workers than users";
  }

  // Per-worker local batch iterators over shard-local indices.
  std::vector<BatchIterator> iterators;
  iterators.reserve(workers);
  for (size_t r = 0; r < workers; ++r) {
    iterators.emplace_back(shards[r].size(), config_.batch_size,
                           config_.seed + r);
  }

  DistributedResult result;
  const size_t batches_per_epoch = iterators[0].BatchesPerEpoch();
  const size_t total_rounds =
      (config_.epochs * batches_per_epoch + config_.sync_every_batches - 1) /
      config_.sync_every_batches;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& rounds_counter = metrics.Counter("distributed.rounds");
  obs::Counter& users_counter = metrics.Counter("distributed.users");
  LatencyHistogram& round_us_histo = metrics.Histo("distributed.round_us");
  std::vector<uint32_t> local, global;
  for (size_t round = 0; round < total_rounds; ++round) {
    Stopwatch round_watch;
    // The workers would run in parallel on a real cluster: the modeled
    // round time is the slowest worker plus the synchronization barrier,
    // each charged in thread CPU time.
    double max_busy = 0.0;
    for (size_t r = 0; r < workers; ++r) {
      FVAE_TRACE_SCOPE("distributed.worker_round");
      const double busy_start = ThreadCpuSeconds();
      for (size_t step = 0; step < config_.sync_every_batches; ++step) {
        if (!iterators[r].Next(&local)) {
          iterators[r].NewEpoch();
          if (!iterators[r].Next(&local)) break;
        }
        global.clear();
        for (uint32_t idx : local) global.push_back(shards[r][idx]);
        const float beta = core::AnnealedBeta(
            model_config_, round * config_.sync_every_batches + step + 1);
        // Serial step: the replicas are already the parallelism.
        replicas_[r]->TrainStep(dataset, global, beta);
        result.users_processed += global.size();
        users_counter.Add(global.size());
      }
      max_busy = std::max(max_busy, ThreadCpuSeconds() - busy_start);
    }
    const double sync_start = ThreadCpuSeconds();
    AverageReplicas();
    result.simulated_seconds += max_busy + ThreadCpuSeconds() - sync_start;
    ++result.rounds;
    rounds_counter.Increment();
    round_us_histo.Record(round_watch.ElapsedSeconds() * 1e6);
  }
  return result;
}

}  // namespace fvae::distributed
