#ifndef FVAE_COMMON_RANDOM_H_
#define FVAE_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fvae {

/// Complete serializable state of an Rng: the four xoshiro256** lanes plus
/// the Box-Muller cache. The cache is part of the state on purpose —
/// restoring only the lanes after an odd number of Normal() draws would
/// replay the cached value's twin and diverge from the uninterrupted
/// stream. Checkpoints persist this struct to make resumed training
/// bitwise-identical.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  bool operator==(const RngState&) const = default;
};

/// Fast, reproducible PRNG (xoshiro256**), seeded via SplitMix64.
///
/// All stochastic components of the library (initialization, sampling,
/// data generation) draw from an explicitly passed Rng so experiments are
/// deterministic given a seed. Satisfies UniformRandomBitGenerator, so it
/// can also drive <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next64(); }
  uint64_t Next64();

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Gamma(shape, 1) draw via Marsaglia-Tsang (shape boost for shape < 1).
  double Gamma(double shape);

  /// Poisson(lambda) draw; Knuth's method for small lambda, normal
  /// approximation (rounded, clamped at 0) for lambda > 64.
  uint64_t Poisson(double lambda);

  /// Dirichlet draw with the given concentration parameters (all > 0).
  std::vector<double> Dirichlet(const std::vector<double>& alpha);

  /// Samples k distinct indices from [0, n) without replacement
  /// (Floyd's algorithm); output order is unspecified.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

  /// Snapshot of the generator, sufficient to reproduce the exact draw
  /// stream via SetState (used by checkpoint/resume).
  RngState GetState() const;

  /// Restores a snapshot taken with GetState.
  void SetState(const RngState& state);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Stream of `key`'s values under `seed` (normal_fill's per-row stream, or
/// an Rng seed): the seed and then the key pass through the full SplitMix64
/// finalizer, so nearby seeds or keys give unrelated streams. A linear mix
/// such as seed + key would not do: Rng(s) seeds its lanes from SplitMix64
/// at s + g, s + 2g, ... (g the golden-ratio increment), so two keys g
/// apart would share three of their four lanes, and normal_fill would build
/// the rows of two keys a few apart from the same counter hashes.
uint64_t MixKey(uint64_t seed, uint64_t key);

/// Weighted discrete sampling in O(1) per draw after O(n) setup
/// (Walker/Vose alias method). Used by the frequency and Zipfian feature
/// sampling strategies and by Item2Vec negative sampling.
class AliasSampler {
 public:
  /// Builds the alias table from (unnormalized, non-negative) weights.
  /// At least one weight must be positive.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index, distributed proportionally to the weights.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace fvae

#endif  // FVAE_COMMON_RANDOM_H_
