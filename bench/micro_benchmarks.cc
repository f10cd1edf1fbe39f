// Micro-benchmarks of the performance-critical kernels (google-benchmark):
// GEMM, the dynamic hash table vs std::unordered_map, alias sampling and
// batched-softmax candidate construction. These back the complexity claims
// of paper §IV-C.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/random.h"
#include "core/sampling.h"
#include "hash/dynamic_hash_table.h"
#include "math/matrix.h"
#include "math/vector_ops.h"
#include "nn/losses.h"

namespace fvae {
namespace {

void BM_Gemm(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::Gaussian(n, n, 1.0f, rng);
  Matrix b = Matrix::Gaussian(n, n, 1.0f, rng);
  Matrix out;
  for (auto _ : state) {
    Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_DynamicHashTableInsert(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    DynamicHashTable table;
    for (size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(table.GetOrInsert(i * 2654435761ULL));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DynamicHashTableInsert)->Arg(1000)->Arg(100000);

void BM_UnorderedMapInsert(benchmark::State& state) {
  const size_t n = state.range(0);
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint32_t> table;
    for (size_t i = 0; i < n; ++i) {
      table.emplace(i * 2654435761ULL, static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnorderedMapInsert)->Arg(1000)->Arg(100000);

void BM_DynamicHashTableLookup(benchmark::State& state) {
  const size_t n = 100000;
  DynamicHashTable table;
  for (size_t i = 0; i < n; ++i) table.GetOrInsert(i * 2654435761ULL);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Find((rng.UniformInt(uint64_t{n})) * 2654435761ULL));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicHashTableLookup);

void BM_AliasSample(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<double> weights(n);
  Rng rng(5);
  for (auto& w : weights) w = rng.Uniform() + 0.01;
  AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(1000000);

void BM_SoftmaxFullVsSubset(benchmark::State& state) {
  // Cost of one user's multinomial gradient over `n` candidates — the
  // quantity batched softmax shrinks from J to the batch union.
  const size_t n = state.range(0);
  Rng rng(7);
  std::vector<float> logits(n), counts(n, 0.0f), grad(n);
  for (auto& v : logits) v = static_cast<float>(rng.Normal());
  for (int i = 0; i < 20; ++i) counts[rng.UniformInt(uint64_t{n})] = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MultinomialNll(logits, counts, grad));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SoftmaxFullVsSubset)
    ->Arg(500)       // typical batched-softmax candidate count
    ->Arg(131072);   // legacy full softmax over a 2^17 hashed space

void BM_SampleCandidates(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<core::Candidate> candidates(n);
  Rng rng(9);
  for (size_t i = 0; i < n; ++i) {
    candidates[i] = {i, static_cast<uint32_t>(rng.UniformInt(uint64_t{64}) + 1)};
  }
  for (auto _ : state) {
    auto ids = core::SampleCandidates(candidates, 0.1,
                                      core::SamplingStrategy::kUniform, rng);
    benchmark::DoNotOptimize(ids.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SampleCandidates)->Arg(10000);

}  // namespace
}  // namespace fvae

BENCHMARK_MAIN();
