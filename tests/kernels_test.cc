#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "math/kernels/kernel_table.h"
#include "math/special.h"

namespace fvae {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Distance between two floats in units of last place, treating the float
/// line as the ordered integer line (negative floats mirrored). Returns a
/// huge value when exactly one side is NaN.
uint64_t UlpDistance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return (std::isnan(a) && std::isnan(b)) ? 0 : UINT64_MAX;
  }
  // Monotone map from sign-magnitude float bits to the integer line.
  auto key = [](float f) -> int64_t {
    int32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits < 0 ? -(int64_t)(bits & 0x7fffffff) : (int64_t)bits;
  };
  const int64_t ka = key(a), kb = key(b);
  return static_cast<uint64_t>(ka > kb ? ka - kb : kb - ka);
}

/// ULP-bounded closeness with an absolute floor for results near zero
/// (where relative/ULP comparisons are meaninglessly strict).
::testing::AssertionResult Close(float a, float b, uint64_t max_ulps,
                                 float abs_eps) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  if (a == b) return ::testing::AssertionSuccess();
  if (std::fabs(a - b) <= abs_eps) return ::testing::AssertionSuccess();
  const uint64_t d = UlpDistance(a, b);
  if (d <= max_ulps) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << d << " ulps";
}

std::vector<float> RandomVec(size_t n, std::mt19937* rng, float lo = -1.0f,
                             float hi = 1.0f) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (float& x : v) x = dist(*rng);
  return v;
}

// Runs first in this binary: with FVAE_FORCE_ISA set (the forced-ISA ctest
// legs), first-use init must install exactly the forced ISA when the CPU
// has it.
TEST(KernelDispatchTest, EnvOverrideRespected) {
  const char* forced = std::getenv("FVAE_FORCE_ISA");
  if (forced == nullptr) GTEST_SKIP() << "FVAE_FORCE_ISA not set";
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (std::string(forced) == IsaName(isa)) {
      if (IsaSupported(isa)) {
        EXPECT_EQ(ActiveIsa(), isa) << "env override ignored";
      } else {
        // Unsupported forced ISA keeps the detected best.
        EXPECT_TRUE(IsaSupported(ActiveIsa()));
      }
      return;
    }
  }
  GTEST_SKIP() << "unrecognized FVAE_FORCE_ISA value: " << forced;
}

TEST(KernelDispatchTest, TableIsFullyPopulated) {
  const KernelTable& t = Kernels();
  EXPECT_NE(t.gemm_accumulate, nullptr);
  EXPECT_NE(t.dot, nullptr);
  EXPECT_NE(t.axpy, nullptr);
  EXPECT_NE(t.scale_add, nullptr);
  EXPECT_NE(t.adagrad_step, nullptr);
  EXPECT_NE(t.softmax_inplace, nullptr);
  EXPECT_NE(t.log_softmax_inplace, nullptr);
  EXPECT_NE(t.exp_inplace, nullptr);
  EXPECT_NE(t.tanh_inplace, nullptr);
  EXPECT_NE(t.multinomial_grad, nullptr);
  EXPECT_NE(t.normal_fill, nullptr);
  EXPECT_TRUE(IsaSupported(t.isa));
}

TEST(KernelDispatchTest, ForceIsaSwitchesAndRestores) {
  const Isa entry = ActiveIsa();
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  ASSERT_TRUE(ForceIsa(entry));
  EXPECT_EQ(ActiveIsa(), entry);
}

/// Parametrized over every ISA the host supports; unsupported ISAs skip.
/// Each test compares the forced table against a locally built scalar
/// reference table, so parity is checked kernel-for-kernel.
class KernelIsaTest : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    entry_isa_ = ActiveIsa();
    if (!IsaSupported(GetParam())) {
      GTEST_SKIP() << IsaName(GetParam()) << " not supported on this CPU";
    }
    ASSERT_TRUE(ForceIsa(GetParam()));
    FillScalar(&ref_);
  }
  void TearDown() override { ForceIsa(entry_isa_); }

  const KernelTable& T() { return Kernels(); }

  KernelTable ref_;
  Isa entry_isa_ = Isa::kScalar;
};

TEST_P(KernelIsaTest, GemmParityAcrossTailSizes) {
  // Sizes straddle every strip width (1/8/16/32/128) and their remainders;
  // the row counts cover the 8- and 4-row tiles and every leftover mix.
  const size_t sizes[] = {1, 3, 7, 17, 31, 63, 65};
  const size_t n_sizes[] = {1, 3, 7, 17, 31, 63, 65, 127, 128, 129};
  std::mt19937 rng(42);
  for (size_t m : {1, 4, 7, 8, 9, 12, 15, 16, 17}) {
    for (size_t k : sizes) {
      for (size_t n : n_sizes) {
        const std::vector<float> a = RandomVec(m * k, &rng);
        const std::vector<float> b = RandomVec(k * n, &rng);
        std::vector<float> got = RandomVec(m * n, &rng);
        std::vector<float> want = got;
        T().gemm_accumulate(a.data(), b.data(), got.data(), m, k, n, n, n);
        ref_.gemm_accumulate(a.data(), b.data(), want.data(), m, k, n, n, n);
        for (size_t i = 0; i < m * n; ++i) {
          EXPECT_TRUE(Close(got[i], want[i], 64,
                            1e-6f * static_cast<float>(k)))
              << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// Every output element is one FMA chain over ascending k starting from
// `out`, whatever tile shape runs it, so the two vector ISAs agree to the
// bit; only the scalar table (no FMA) is held to a ULP bound.
TEST(KernelGemmTest, Avx512GemmIsBitwiseAvx2) {
  if (!IsaSupported(Isa::kAvx2) || !IsaSupported(Isa::kAvx512)) {
    GTEST_SKIP() << "needs both avx2 and avx512";
  }
  const Isa entry = ActiveIsa();
  ASSERT_TRUE(ForceIsa(Isa::kAvx2));
  const KernelTable avx2 = Kernels();
  ASSERT_TRUE(ForceIsa(Isa::kAvx512));
  const KernelTable avx512 = Kernels();
  ASSERT_TRUE(ForceIsa(entry));
  std::mt19937 rng(19);
  for (size_t m = 1; m <= 17; ++m) {
    for (size_t k : {1, 7, 256}) {
      for (size_t n : {1, 15, 16, 17, 31, 32, 33, 127, 128, 129, 887}) {
        const std::vector<float> a = RandomVec(m * k, &rng);
        const std::vector<float> b = RandomVec(k * n, &rng);
        std::vector<float> got = RandomVec(m * n, &rng);
        std::vector<float> want = got;
        avx512.gemm_accumulate(a.data(), b.data(), got.data(), m, k, n, n, n);
        avx2.gemm_accumulate(a.data(), b.data(), want.data(), m, k, n, n, n);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(float)))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// A strided call (b's rows ldb floats apart, out's ldc apart, as a strip
// panel's kernel calls are) must give bitwise the contiguous call in every
// ISA, and AVX-512 bitwise AVX2. The gaps between rows hold NaN: a kernel
// that read one would poison its output, and one that wrote one would
// change it.
TEST(KernelGemmTest, StridedGemmIsBitwiseContiguous) {
  const Isa entry = ActiveIsa();
  std::vector<std::pair<Isa, KernelTable>> tables;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (ForceIsa(isa)) tables.emplace_back(isa, Kernels());
  }
  ASSERT_TRUE(ForceIsa(entry));
  std::mt19937 rng(23);
  for (size_t m : {1, 4, 8, 9, 17}) {
    for (size_t k : {1, 7, 256}) {
      for (size_t n : {1, 15, 16, 17, 31, 32, 33, 63}) {
        const size_t ldb = n + 5, ldc = n + 3;
        const std::vector<float> a = RandomVec(m * k, &rng);
        const std::vector<float> b = RandomVec(k * n, &rng);
        const std::vector<float> out0 = RandomVec(m * n, &rng);
        std::vector<float> b_strided(k * ldb, kNan);
        std::vector<float> out_strided(m * ldc, kNan);
        for (size_t p = 0; p < k; ++p) {
          std::memcpy(&b_strided[p * ldb], &b[p * n], n * sizeof(float));
        }
        std::vector<float> strided_avx2;
        for (const auto& [isa, t] : tables) {
          std::vector<float> want = out0;
          t.gemm_accumulate(a.data(), b.data(), want.data(), m, k, n, n, n);
          std::vector<float> got = out_strided;
          for (size_t i = 0; i < m; ++i) {
            std::memcpy(&got[i * ldc], &out0[i * n], n * sizeof(float));
          }
          t.gemm_accumulate(a.data(), b_strided.data(), got.data(), m, k, n,
                            ldb, ldc);
          for (size_t i = 0; i < m; ++i) {
            ASSERT_EQ(0, std::memcmp(&got[i * ldc], &want[i * n],
                                     n * sizeof(float)))
                << IsaName(isa) << " m=" << m << " k=" << k << " n=" << n;
            for (size_t j = n; j < ldc; ++j) {
              ASSERT_TRUE(std::isnan(got[i * ldc + j]))
                  << IsaName(isa) << " wrote a gap, n=" << n;
            }
          }
          if (isa == Isa::kAvx2) strided_avx2 = got;
          if (isa == Isa::kAvx512 && !strided_avx2.empty()) {
            ASSERT_EQ(0, std::memcmp(got.data(), strided_avx2.data(),
                                     got.size() * sizeof(float)))
                << "avx512 vs avx2 m=" << m << " k=" << k << " n=" << n;
          }
        }
      }
    }
  }
}

TEST_P(KernelIsaTest, GemmPropagatesInfAndNanLikeScalar) {
  // 0 * inf in the accumulation must yield NaN in every path — the old
  // tiled GEMM skipped zero multiplicands in its remainder loop, so the
  // tail diverged from the body on exactly these inputs.
  const size_t m = 1, k = 2;
  for (size_t n : {size_t{1}, size_t{8}, size_t{17}}) {
    std::vector<float> a = {0.0f, 1.0f};
    std::vector<float> b(k * n, 1.0f);
    b[0] = kInf;  // B(0,0) pairs with A's zero: 0 * inf = NaN
    std::vector<float> got(m * n, 0.0f), want(m * n, 0.0f);
    T().gemm_accumulate(a.data(), b.data(), got.data(), m, k, n, n, n);
    ref_.gemm_accumulate(a.data(), b.data(), want.data(), m, k, n, n, n);
    EXPECT_TRUE(std::isnan(got[0])) << "n=" << n;
    EXPECT_TRUE(std::isnan(want[0])) << "n=" << n;
    for (size_t i = 1; i < n; ++i) {
      EXPECT_EQ(std::isnan(got[i]), std::isnan(want[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(KernelIsaTest, DotAndAxpyParity) {
  std::mt19937 rng(7);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17}, size_t{65},
                   size_t{256}}) {
    const std::vector<float> x = RandomVec(n, &rng);
    const std::vector<float> y = RandomVec(n, &rng);
    EXPECT_NEAR(T().dot(x.data(), y.data(), n),
                ref_.dot(x.data(), y.data(), n), 1e-9 * (double(n) + 1.0));
    std::vector<float> got = y, want = y;
    T().axpy(0.37f, x.data(), got.data(), n);
    ref_.axpy(0.37f, x.data(), want.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(Close(got[i], want[i], 2, 1e-7f)) << "n=" << n;
    }
  }
}

// ---- never-fused row kernels: bitwise against an in-test formula --------

/// Bitwise equality, except that any NaN matches any NaN (payload and sign
/// of a NaN are not part of any kernel's contract).
::testing::AssertionResult SameBits(float got, float want) {
  if (std::isnan(got) && std::isnan(want)) return ::testing::AssertionSuccess();
  uint32_t a, b;
  std::memcpy(&a, &got, sizeof(a));
  std::memcpy(&b, &want, sizeof(b));
  if (a == b) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << got << " (0x" << std::hex << a << ") vs " << want << " (0x" << b
         << ")";
}

/// Random values with every special a row can hold sprinkled in: +-0,
/// +-inf, NaN and subnormals of both signs.
std::vector<float> RowValues(size_t n, std::mt19937* rng) {
  constexpr float kSpecials[] = {0.0f,  -0.0f,   kInf,        -kInf,
                                 kNan,  1e-40f,  -3e-39f,     1.0e-3f};
  std::vector<float> v = RandomVec(n, rng, -2.0f, 2.0f);
  std::uniform_int_distribution<size_t> pick(0, std::size(kSpecials) - 1);
  for (size_t i = 0; i < n; i += 3) v[i] = kSpecials[pick(*rng)];
  return v;
}

constexpr size_t kRowKernelSizes[] = {1, 7, 15, 16, 17, 31, 33, 256};

TEST_P(KernelIsaTest, ScaleAddIsProductThenSumBitwise) {
  std::mt19937 rng(41);
  for (size_t n : kRowKernelSizes) {
    for (float v : {0.37f, -1.75f, 0.0f, -0.0f, kInf, kNan, 1e-40f}) {
      const std::vector<float> x = RowValues(n, &rng);
      const std::vector<float> y = RowValues(n, &rng);
      std::vector<float> got = y;
      T().scale_add(v, x.data(), got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // volatile: the product is rounded on its own even where the
        // compiler could contract it into an FMA.
        const volatile float product = v * x[i];
        EXPECT_TRUE(SameBits(got[i], y[i] + product))
            << "n=" << n << " v=" << v << " i=" << i << " x=" << x[i]
            << " y=" << y[i];
      }
    }
  }
}

TEST_P(KernelIsaTest, AdagradStepIsScalarFormulaBitwise) {
  std::mt19937 rng(43);
  for (size_t n : kRowKernelSizes) {
    for (const auto& [lr, eps] : {std::pair{0.05f, 1e-8f},
                                  std::pair{1.5f, 0.0f}}) {
      const std::vector<float> w0 = RowValues(n, &rng);
      const std::vector<float> g0 = RowValues(n, &rng);
      std::vector<float> acc0 = RowValues(n, &rng);
      // Mostly valid (non-negative) accumulators, a negative one or two.
      for (size_t i = 1; i < n; i += 4) acc0[i] = std::fabs(acc0[i]);
      std::vector<float> w = w0, acc = acc0, g = g0;
      T().adagrad_step(w.data(), acc.data(), g.data(), lr, eps, n);
      for (size_t i = 0; i < n; ++i) {
        const volatile float square = g0[i] * g0[i];
        const float want_acc = acc0[i] + square;
        const float want_w = w0[i] - lr * g0[i] / (std::sqrt(want_acc) + eps);
        EXPECT_TRUE(SameBits(acc[i], want_acc)) << "n=" << n << " i=" << i;
        EXPECT_TRUE(SameBits(w[i], want_w)) << "n=" << n << " i=" << i;
        EXPECT_TRUE(SameBits(g[i], 0.0f)) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(KernelIsaTest, ElementwiseParityAgainstScalar) {
  std::mt19937 rng(11);
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{33},
                   size_t{100}}) {
    const std::vector<float> base = RandomVec(n, &rng, -10.0f, 10.0f);
    for (auto op : {&KernelTable::exp_inplace, &KernelTable::tanh_inplace}) {
      std::vector<float> got = base, want = base;
      (T().*op)(got.data(), n);
      (ref_.*op)(want.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(Close(got[i], want[i], 8, 1e-6f)) << "n=" << n;
      }
    }
  }
}

TEST_P(KernelIsaTest, VectorExpMatchesScalarTwinBitwise) {
  if (GetParam() == Isa::kScalar) {
    GTEST_SKIP() << "scalar table uses libm, not the polynomial twin";
  }
  // The SIMD exp and ExpApprox share range reduction, coefficients, and
  // FMA shapes, so agreement is bitwise.
  std::vector<float> xs;
  for (float v = -100.0f; v <= 100.0f; v += 0.618f) xs.push_back(v);
  xs.insert(xs.end(), {0.0f, -0.0f, 88.3762626647950f, 88.5f,
                       -87.3365478515625f, -87.5f, 1.0f, -1.0f});
  std::vector<float> e = xs;
  T().exp_inplace(e.data(), e.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = ExpApprox(xs[i]);
    EXPECT_EQ(std::memcmp(&e[i], &want, sizeof(float)), 0)
        << "exp(" << xs[i] << ") = " << e[i] << " want " << want;
  }
}

TEST_P(KernelIsaTest, ExpSaturatesAndPropagatesSpecials) {
  // 88.0 is near — but safely inside — the saturation clamp; at the exact
  // boundary the approximation already rounds to +inf (like ExpApprox).
  std::vector<float> x = {100.0f, -100.0f, kNan, kInf, -kInf, 0.0f,
                          88.0f, -87.0f};
  T().exp_inplace(x.data(), x.size());
  EXPECT_EQ(x[0], kInf);        // above the clamp: +inf, not garbage
  EXPECT_EQ(x[1], 0.0f);        // below the clamp: exact zero
  EXPECT_TRUE(std::isnan(x[2]));
  EXPECT_EQ(x[3], kInf);
  EXPECT_EQ(x[4], 0.0f);
  EXPECT_EQ(x[5], 1.0f);
  EXPECT_TRUE(std::isfinite(x[6]) && x[6] > 0.0f);
  // exp(-87) ~ 1.6e-38 sits just above min-normal: must survive, not be
  // flushed or saturated to zero by an over-wide clamp.
  EXPECT_TRUE(x[7] > 0.0f && std::fpclassify(x[7]) == FP_NORMAL)
      << "near-underflow value must stay normal, got " << x[7];
}

TEST_P(KernelIsaTest, SoftmaxEdgeCases) {
  // Empty span: no touch, no NaN (regression: used to divide 0/0).
  std::vector<float> sentinel = {42.0f};
  T().softmax_inplace(sentinel.data(), 0);
  T().log_softmax_inplace(sentinel.data(), 0);
  EXPECT_EQ(sentinel[0], 42.0f);

  // All-(-inf) logits: uniform, not NaN (regression: exp(-inf - -inf)).
  for (size_t n : {size_t{1}, size_t{5}, size_t{19}}) {
    std::vector<float> x(n, -kInf);
    T().softmax_inplace(x.data(), n);
    for (float p : x) EXPECT_FLOAT_EQ(p, 1.0f / static_cast<float>(n));
    std::vector<float> lx(n, -kInf);
    T().log_softmax_inplace(lx.data(), n);
    for (float lp : lx) {
      EXPECT_FLOAT_EQ(lp, -std::log(static_cast<float>(n)));
    }
  }

  // NaN anywhere poisons the whole output, matching what the scalar
  // exp -> sum -> normalize chain does.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{16}}) {
    std::vector<float> x(17, 0.5f);
    x[pos] = kNan;
    T().softmax_inplace(x.data(), x.size());
    for (float p : x) EXPECT_TRUE(std::isnan(p)) << "pos=" << pos;
    std::vector<float> lx(17, 0.5f);
    lx[pos] = kNan;
    T().log_softmax_inplace(lx.data(), lx.size());
    for (float lp : lx) EXPECT_TRUE(std::isnan(lp)) << "pos=" << pos;
  }

  // A +inf logit dominates: its probability is NaN-free only at the inf
  // slot under the scalar semantics (inf - inf = NaN elsewhere... exp of
  // -inf shift). Scalar and vector must agree elementwise on NaN-ness.
  std::vector<float> got = {1.0f, kInf, 0.0f, 2.0f};
  std::vector<float> want = got;
  T().softmax_inplace(got.data(), got.size());
  ref_.softmax_inplace(want.data(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::isnan(got[i]), std::isnan(want[i])) << "i=" << i;
    if (!std::isnan(got[i])) {
      EXPECT_TRUE(Close(got[i], want[i], 16, 1e-6f)) << "i=" << i;
    }
  }
}

TEST_P(KernelIsaTest, SoftmaxParityAgainstScalar) {
  std::mt19937 rng(23);
  for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{17}, size_t{64},
                   size_t{129}}) {
    const std::vector<float> base = RandomVec(n, &rng, -8.0f, 8.0f);
    std::vector<float> got = base, want = base;
    T().softmax_inplace(got.data(), n);
    ref_.softmax_inplace(want.data(), n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(Close(got[i], want[i], 256, 1e-6f)) << "n=" << n;
      total += got[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-5);

    got = base;
    want = base;
    T().log_softmax_inplace(got.data(), n);
    ref_.log_softmax_inplace(want.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(Close(got[i], want[i], 256, 1e-5f)) << "n=" << n;
    }
  }
}

TEST_P(KernelIsaTest, MultinomialGradFlushesSubnormalMass) {
  // lp = -87 gives softmax mass ~1.6e-38; scaled by total_count = 0.5 the
  // naive product is subnormal. The kernel must emit exactly zero there,
  // never subnormal garbage, even with FVAE_FTZ=0.
  const size_t n = 9;
  std::vector<float> lp(n, -87.0f);
  lp[0] = 0.0f;  // carries ~all the mass
  std::vector<float> counts(n, 0.0f);
  counts[0] = 0.5f;
  std::vector<float> grad(n, kNan);
  T().multinomial_grad(lp.data(), counts.data(), 0.5f, 1.0f, grad.data(),
                     n);
  EXPECT_TRUE(Close(grad[0], 0.0f, 4, 1e-6f));
  for (size_t j = 1; j < n; ++j) {
    EXPECT_EQ(grad[j], 0.0f) << "j=" << j;
    EXPECT_NE(std::fpclassify(grad[j]), FP_SUBNORMAL);
  }
}

TEST_P(KernelIsaTest, MultinomialGradParityAndNan) {
  std::mt19937 rng(99);
  for (size_t n : {size_t{1}, size_t{6}, size_t{17}, size_t{70}}) {
    std::vector<float> lp = RandomVec(n, &rng, -6.0f, 0.0f);
    ref_.log_softmax_inplace(lp.data(), n);  // normalize so mass sums to 1
    const std::vector<float> counts = RandomVec(n, &rng, 0.0f, 3.0f);
    float total = 0.0f;
    for (float c : counts) total += c;
    std::vector<float> got(n), want(n);
    T().multinomial_grad(lp.data(), counts.data(), total, 1.0f, got.data(),
                        n);
    ref_.multinomial_grad(lp.data(), counts.data(), total, 1.0f, want.data(),
                         n);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(Close(got[j], want[j], 32, 1e-5f)) << "n=" << n;
    }
  }
  // NaN in log_probs must reach the gradient, not be flushed away.
  std::vector<float> lp = {0.0f, kNan, -1.0f};
  std::vector<float> counts = {1.0f, 0.0f, 1.0f};
  std::vector<float> grad(3);
  T().multinomial_grad(lp.data(), counts.data(), 2.0f, 1.0f, grad.data(), 3);
  EXPECT_TRUE(std::isnan(grad[1]));
}

// The training step computes the gradient over the log-probs it came from
// (grad == log_probs): in place must be bitwise out of place, in every
// vector body and masked tail.
TEST_P(KernelIsaTest, MultinomialGradInPlaceIsBitwiseOutOfPlace) {
  std::mt19937 rng(7);
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{17}, size_t{70}}) {
    std::vector<float> lp = RandomVec(n, &rng, -6.0f, 0.0f);
    ref_.log_softmax_inplace(lp.data(), n);
    const std::vector<float> counts = RandomVec(n, &rng, 0.0f, 3.0f);
    std::vector<float> want(n);
    T().multinomial_grad(lp.data(), counts.data(), 5.0f, 1.0f, want.data(),
                        n);
    T().multinomial_grad(lp.data(), counts.data(), 5.0f, 1.0f, lp.data(), n);
    EXPECT_EQ(std::memcmp(lp.data(), want.data(), n * sizeof(float)), 0)
        << "n=" << n;
  }
}

// The training step weights each field's gradient through the kernel's
// scale: every vector body and masked tail must give bitwise the unscaled
// gradient times the scale, two roundings, never one fused operation.
TEST_P(KernelIsaTest, MultinomialGradScaleIsProductOfRoundedDifference) {
  std::mt19937 rng(11);
  constexpr float kScale = 0.7f / 512.0f;
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{17}, size_t{70}}) {
    std::vector<float> lp = RandomVec(n, &rng, -6.0f, 0.0f);
    ref_.log_softmax_inplace(lp.data(), n);
    const std::vector<float> counts = RandomVec(n, &rng, 0.0f, 3.0f);
    std::vector<float> want(n), got(n);
    T().multinomial_grad(lp.data(), counts.data(), 5.0f, 1.0f, want.data(),
                         n);
    for (float& g : want) g *= kScale;
    T().multinomial_grad(lp.data(), counts.data(), 5.0f, kScale, got.data(),
                         n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
        << "n=" << n;
  }
}

TEST_P(KernelIsaTest, TanhSpecials) {
  std::vector<float> t = {0.0f, 50.0f, -50.0f, kNan, kInf, -kInf};
  T().tanh_inplace(t.data(), t.size());
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 1.0f);
  EXPECT_FLOAT_EQ(t[2], -1.0f);
  EXPECT_TRUE(std::isnan(t[3]));
  EXPECT_FLOAT_EQ(t[4], 1.0f);
  EXPECT_FLOAT_EQ(t[5], -1.0f);
}

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr size_t kFillDims[] = {1, 2, 15, 16, 17, 31, 32, 33, 255, 256, 257};

// Every ISA's normal_fill is its scalar twin NormalFill bit for bit: every
// dim across the vector bodies and tails, a destination one float off
// alignment, and keys at the extremes and one and two golden-ratio
// increments apart. The float after the row must stay untouched.
TEST_P(KernelIsaTest, NormalFillMatchesScalarTwinBitwise) {
  std::vector<uint64_t> keys = {0, ~uint64_t{0}, kGolden, 2 * kGolden, 1, 42};
  std::mt19937_64 rng(3);
  for (int i = 0; i < 6; ++i) keys.push_back(rng());
  constexpr float kSentinel = 12345.0f;
  std::vector<float> got(257 + 2), want(257);
  for (uint64_t seed : {uint64_t{0}, uint64_t{13}}) {
    for (uint64_t key : keys) {
      for (float stddev : {0.1f, 1.0f}) {
        for (size_t dim : kFillDims) {
          std::fill(got.begin(), got.end(), kSentinel);
          T().normal_fill(seed, key, stddev, got.data() + 1, dim);
          NormalFill(seed, key, stddev, want.data(), dim);
          EXPECT_EQ(std::memcmp(got.data() + 1, want.data(),
                                dim * sizeof(float)),
                    0)
              << "seed " << seed << " key " << key << " dim " << dim;
          EXPECT_EQ(got[0], kSentinel);
          EXPECT_EQ(got[dim + 1], kSentinel) << "dim " << dim;
        }
      }
    }
  }
}

// Element d depends only on (seed, key, d): a dim-d row is the first d
// floats of the dim-257 row, so odd dims and tails need no special case.
TEST_P(KernelIsaTest, NormalFillRowIsPrefixOfLongerRow) {
  std::vector<float> full(257), part(257);
  for (uint64_t key : {uint64_t{7}, ~uint64_t{0}, kGolden}) {
    T().normal_fill(5, key, 0.3f, full.data(), full.size());
    for (size_t dim : kFillDims) {
      T().normal_fill(5, key, 0.3f, part.data(), dim);
      EXPECT_EQ(std::memcmp(part.data(), full.data(), dim * sizeof(float)), 0)
          << "key " << key << " dim " << dim;
    }
  }
}

// u1 = ((h1 >> 8) + 1) / 2^24 never reaches 0, so even the extreme
// counters give finite draws. The two keys below were found by search:
// under seed 0, element 0's hash has its top 24 bits all zero (u1 = 2^-24,
// the largest radius) and all one (u1 = 1, radius 0).
TEST_P(KernelIsaTest, NormalFillIsFiniteAtExtremeCounters) {
  constexpr uint64_t kSmallestU1 = 21455659, kUnitU1 = 37241529;
  ASSERT_EQ(NormalFillHash(MixKey(0, kSmallestU1), 0) >> 8, 0u);
  ASSERT_EQ(NormalFillHash(MixKey(0, kUnitU1), 0) >> 8, 0xffffffu);
  const double max_radius = std::sqrt(-2.0 * std::log(0x1p-24));
  std::vector<float> got(33), want(33);
  for (uint64_t key : {kSmallestU1, kUnitU1}) {
    T().normal_fill(0, key, 1.0f, got.data(), got.size());
    NormalFill(0, key, 1.0f, want.data(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
    for (float v : got) {
      EXPECT_TRUE(std::isfinite(v)) << "key " << key;
      EXPECT_LE(std::fabs(v), max_radius) << "key " << key;
    }
  }
  // Radius 0 zeroes the whole pair; the largest radius is the bound.
  T().normal_fill(0, kUnitU1, 1.0f, got.data(), 2);
  EXPECT_EQ(got[0], 0.0f);
  EXPECT_EQ(got[1], 0.0f);
  T().normal_fill(0, kSmallestU1, 1.0f, got.data(), 2);
  EXPECT_NEAR(std::hypot(got[0], got[1]), max_radius, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelIsaTest,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2,
                                           Isa::kAvx512),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(IsaName(info.param));
                         });

}  // namespace
}  // namespace fvae
