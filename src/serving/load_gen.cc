#include "serving/load_gen.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"

namespace fvae::serving {

core::RawUserFeatures RawFeaturesOf(const MultiFieldDataset& dataset,
                                    uint32_t user) {
  core::RawUserFeatures features(dataset.num_fields());
  for (size_t k = 0; k < dataset.num_fields(); ++k) {
    const auto span = dataset.UserField(user, k);
    features[k].assign(span.begin(), span.end());
  }
  return features;
}

ShardedEmbeddingStore MaterializeEmbeddings(const core::FieldVae& model,
                                            const MultiFieldDataset& dataset,
                                            std::span<const uint32_t> users,
                                            size_t num_shards) {
  // Encoding in chunks bounds the peak size of the activation matrices.
  constexpr size_t kChunk = 1024;
  ShardedEmbeddingStore store(num_shards);
  for (size_t begin = 0; begin < users.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, users.size());
    const std::span<const uint32_t> chunk = users.subspan(begin, end - begin);
    const Matrix mu = model.Encode(dataset, chunk);
    for (size_t i = 0; i < chunk.size(); ++i) {
      const float* row = mu.Row(i);
      store.Put(chunk[i], std::vector<float>(row, row + mu.cols()));
    }
  }
  return store;
}

std::string LoadGenReport::Json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"qps\":%.1f,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                "\"p99_us\":%.1f,\"mean_us\":%.1f,\"ok\":%llu,"
                "\"errors\":%llu,\"cold\":%llu,\"elapsed_s\":%.3f}",
                Qps(), latency_us.Percentile(50.0),
                latency_us.Percentile(95.0), latency_us.Percentile(99.0),
                latency_us.Mean(), static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(cold_requests),
                elapsed_seconds);
  return buf;
}

LoadGenReport RunClosedLoopLoad(EmbeddingService& service,
                                const MultiFieldDataset& dataset,
                                std::span<const uint32_t> hot_ids,
                                std::span<const uint32_t> cold_ids,
                                const LoadGenOptions& options) {
  FVAE_CHECK(options.hot_fraction >= 1.0 || !cold_ids.empty())
      << "cold traffic requested but no cold ids";
  FVAE_CHECK(options.hot_fraction <= 0.0 || !hot_ids.empty())
      << "hot traffic requested but no hot ids";
  const size_t num_threads = std::max<size_t>(options.num_threads, 1);
  // Cold user ids start above every dataset id (uint32) and never repeat in
  // the process, so a run against a service that earlier runs already
  // folded users into still misses the store on every cold request.
  static std::atomic<uint64_t> next_cold_id{uint64_t(1) << 40};

  LoadGenReport report;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> cold{0};

  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(options.seed * 1315423911u + t);
      // Strided walk: thread t takes its features from cold_ids[t],
      // [t + T], ... so threads spread over the whole cold pool.
      size_t cold_cursor = t;
      for (size_t i = 0; i < options.requests_per_thread; ++i) {
        uint64_t user_id;
        core::RawUserFeatures features;
        if (rng.Uniform() < options.hot_fraction) {
          const uint32_t user =
              hot_ids[rng.UniformInt(uint64_t(hot_ids.size()))];
          user_id = user;
          features = RawFeaturesOf(dataset, user);
        } else {
          user_id = next_cold_id.fetch_add(1, std::memory_order_relaxed);
          features =
              RawFeaturesOf(dataset, cold_ids[cold_cursor % cold_ids.size()]);
          cold_cursor += num_threads;
          cold.fetch_add(1, std::memory_order_relaxed);
        }
        Stopwatch request_watch;
        const auto result = service.LookupOrEncode(user_id, features);
        report.latency_us.Record(request_watch.ElapsedSeconds() * 1e6);
        result.ok() ? ok.fetch_add(1, std::memory_order_relaxed)
                    : errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  report.elapsed_seconds = watch.ElapsedSeconds();
  report.ok = ok.load();
  report.errors = errors.load();
  report.cold_requests = cold.load();
  return report;
}

}  // namespace fvae::serving
