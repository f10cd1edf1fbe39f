#include "common/random.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace fvae {

namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

// SplitMix64's finalizer.
inline uint64_t Fmix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t SplitMix64(uint64_t& state) {
  return Fmix64(state += kGolden);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (auto& lane : s_) lane = SplitMix64(state);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

RngState Rng::GetState() const {
  RngState state;
  for (size_t i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const RngState& state) {
  for (size_t i = 0; i < 4; ++i) s_[i] = state.s[i];
  // Guard the xoshiro all-zero fixed point, same as the constructor.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t Rng::Next64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t n) {
  FVAE_CHECK(n > 0) << "UniformInt(0) is undefined";
  // Lemire's method: multiply-shift with rejection to remove modulo bias.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
    while (l < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FVAE_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::Uniform() {
  // 53 random bits mapped to [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform; u1 in (0, 1] avoids log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Gamma(double shape) {
  FVAE_CHECK(shape > 0.0) << "Gamma shape must be positive";
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}.
    const double u = 1.0 - Uniform();  // avoid 0
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

uint64_t Rng::Poisson(double lambda) {
  FVAE_CHECK(lambda >= 0.0) << "negative Poisson rate";
  if (lambda == 0.0) return 0;
  if (lambda > 64.0) {
    const double draw = Normal(lambda, std::sqrt(lambda));
    return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw + 0.5);
  }
  const double limit = std::exp(-lambda);
  uint64_t count = 0;
  double product = Uniform();
  while (product > limit) {
    ++count;
    product *= Uniform();
  }
  return count;
}

std::vector<double> Rng::Dirichlet(const std::vector<double>& alpha) {
  FVAE_CHECK(!alpha.empty());
  std::vector<double> draw(alpha.size());
  double total = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    draw[i] = Gamma(alpha[i]);
    total += draw[i];
  }
  FVAE_CHECK(total > 0.0) << "degenerate Dirichlet draw";
  for (double& v : draw) v /= total;
  return draw;
}

std::vector<uint64_t> Rng::SampleWithoutReplacement(uint64_t n, uint64_t k) {
  FVAE_CHECK(k <= n) << "cannot sample " << k << " from " << n;
  // Floyd's algorithm: O(k) expected time and memory.
  std::vector<uint64_t> out;
  out.reserve(k);
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = UniformInt(j + 1);
    bool seen = false;
    for (uint64_t v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

uint64_t MixKey(uint64_t seed, uint64_t key) {
  return Fmix64(Fmix64(seed + kGolden) ^ key);
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  FVAE_CHECK(n > 0) << "AliasSampler needs at least one weight";
  double total = 0.0;
  for (double w : weights) {
    FVAE_CHECK(w >= 0.0) << "negative weight";
    total += w;
  }
  FVAE_CHECK(total > 0.0) << "all weights are zero";

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining columns are (numerically) full.
  for (uint32_t s : small) prob_[s] = 1.0;
  for (uint32_t l : large) prob_[l] = 1.0;
}

size_t AliasSampler::Sample(Rng& rng) const {
  size_t column = rng.UniformInt(prob_.size());
  return rng.Uniform() < prob_[column] ? column : alias_[column];
}

}  // namespace fvae
