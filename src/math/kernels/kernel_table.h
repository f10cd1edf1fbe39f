#ifndef FVAE_MATH_KERNELS_KERNEL_TABLE_H_
#define FVAE_MATH_KERNELS_KERNEL_TABLE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace fvae {

/// Runtime-dispatched SIMD kernel layer for the hot math paths.
///
/// The ISA is detected once (CPUID via __builtin_cpu_supports) the first
/// time Kernels() runs and baked into a table of plain function pointers;
/// every caller thereafter pays one indirect call, no per-call branching.
/// `FVAE_FORCE_ISA=scalar|avx2|avx512` overrides detection (an unsupported
/// forced ISA falls back to the detected best — the table's `isa` field
/// records what actually got installed). ForceIsa() rebuilds the table for
/// tests; it is not thread-safe and must not race concurrent kernel use.
///
/// Numeric contract shared by every ISA implementation:
///  - softmax/log-softmax on an empty span return immediately; on
///    all-(-inf) logits they fill the uniform distribution (1/n resp.
///    -log n) instead of NaN, unless a NaN is present, in which case the
///    whole output is NaN (NaN anywhere always poisons the full output,
///    exactly as the scalar chain exp -> sum -> normalize would).
///  - the vector exp saturates: inputs > 88.3762626647950 yield +inf,
///    inputs < -87.3365478515625 yield 0, NaN propagates; ExpApprox in
///    src/math/special.h is the scalar twin with identical semantics.
///  - normal_fill is bitwise its scalar twin NormalFill (src/math/special.h)
///    on every ISA, which is why the scalar table installs the twin itself:
///    the counter hash is 32-bit integer lane arithmetic (exact), the
///    uniforms are integers times 2^-24 (exact), the vector log and sincos
///    (twins LogApprox and SinCosTurnApprox) reduce their range with
///    integer bit operations and then run the twins' coefficients in the
///    same explicit-FMA shapes, sqrt is correctly rounded, and each
///    remaining product is one rounded multiply in the twin's order. A new
///    embedding row's initial value is therefore the same on every ISA,
///    pool size and insertion order.
///  - GEMM accumulates in ascending-p order in every tile and tail path
///    and never skips zero multiplicands, so 0*inf/0*NaN propagation is
///    identical between the tiled body and the remainder loops.
///  - the kernel TUs build with -ffp-contract=off: an FMA appears only
///    where a kernel asks for one by intrinsic, so scale_add and
///    adagrad_step (whose contract is "never fused") stay bitwise equal to
///    the scalar loops on every ISA.
///  - denormals: Kernels() applies FTZ+DAZ to the calling thread's MXCSR
///    once per thread (disable with FVAE_FTZ=0) so subnormal intermediates
///    in the exp/KL path cannot stall the pipeline; the multinomial-loss
///    gradient additionally flushes sub-FLT_MIN softmax mass to zero so
///    its output is denormal-free even with FVAE_FTZ=0.
///
/// fvae_lint's hot-path purity walk follows `Kernels().member(..)` calls
/// through the `t->member = Target;` registrations below (DispatchBind
/// facts in tools/tu_facts.h), so every per-ISA kernel body stays inside
/// the FVAE_HOT / FVAE_NOALLOC proof.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// The dispatch table. All pointers are non-null after Kernels() returns.
/// Matrices are row-major; only the GEMM takes row strides.
/// Every entry has a caller outside the tests; a kernel without one does
/// not earn a slot in all three ISAs.
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// out[m x n] += a[m x k] * b[k x n]; b's rows are `ldb` floats apart and
  /// out's `ldc` (a is contiguous; a plain row-major call passes n for both).
  void (*gemm_accumulate)(const float* a, const float* b, float* out,
                          size_t m, size_t k, size_t n, size_t ldb,
                          size_t ldc) = nullptr;
  /// Inner product accumulated in double.
  double (*dot)(const float* a, const float* b, size_t n) = nullptr;
  /// y += alpha * x (the vector ISAs fuse this into one FMA per element).
  void (*axpy)(float alpha, const float* x, float* y, size_t n) = nullptr;
  /// y += v * x with the product rounded to float before the add, never
  /// fused: every ISA gives bitwise the scalar `y[i] += v * x[i]`. The
  /// embedding tables accumulate their sparse gradients with it, and the
  /// distributed merge sums replica rows with it at v = 1.
  void (*scale_add)(float v, const float* x, float* y, size_t n) = nullptr;
  /// One AdaGrad step over n parameters, per element and in this order:
  /// acc += g*g; w -= lr*g / (sqrt(acc) + eps); g = 0. No operation is
  /// fused and sqrt/div are exactly rounded, so every ISA gives bitwise
  /// the scalar loop (the embedding tables' sparse update). w, acc and g
  /// must not overlap.
  void (*adagrad_step)(float* w, float* acc, float* g, float lr, float eps,
                       size_t n) = nullptr;
  void (*softmax_inplace)(float* x, size_t n) = nullptr;
  void (*log_softmax_inplace)(float* x, size_t n) = nullptr;
  void (*exp_inplace)(float* x, size_t n) = nullptr;
  void (*tanh_inplace)(float* x, size_t n) = nullptr;
  /// grad[j] = (total_count * exp(log_probs[j]) - counts[j]) * scale, with
  /// sub-FLT_MIN reconstruction mass flushed to exactly zero first. The
  /// difference is rounded before the scale multiplies it (never fused), so
  /// scale = 1 is the plain difference. `grad` may be `log_probs` itself:
  /// element j is read before it is written.
  void (*multinomial_grad)(const float* log_probs, const float* counts,
                           float total_count, float scale, float* grad,
                           size_t n) = nullptr;
  /// Fills row[0, dim) with N(0, stddev^2) draws that are a pure function
  /// of (MixKey(seed, key), element index): counter-hashed uniforms and
  /// float Box-Muller (NormalFill in src/math/special.h spells it out and
  /// is the scalar ISA's entry). Every ISA gives bitwise NormalFill, and a
  /// dim-d row is the first d floats of any longer one. `row` needs no
  /// alignment. A new embedding-table row's initial value.
  void (*normal_fill)(uint64_t seed, uint64_t key, float stddev, float* row,
                      size_t dim) = nullptr;
};

/// Output rows per register tile of the widest GEMM kernel (AVX-512 runs
/// 8x32 tiles). Pooled GEMMs cut their row splits, and GemmTN its packed
/// a^T tiles, on multiples of it. Every ISA's row tile divides it (AVX2
/// tiles 4 rows, scalar 1), so a split never changes which code a row
/// runs.
inline constexpr size_t kGemmRowTile = 8;

/// Columns per strip of a strip panel (math/matrix.h): the widest GEMM
/// kernel's column tile, so a full strip is one AVX-512 8x32 tile wide.
inline constexpr size_t kGemmStripCols = 32;

/// The process-wide table; initializes ISA detection on first call and
/// applies the FTZ/DAZ policy to the calling thread. Safe and cheap to
/// call on the hot path (no allocation, no locks, no logging).
const KernelTable& Kernels();

/// The ISA the installed table was built for.
Isa ActiveIsa();

/// Stable lowercase name ("scalar" / "avx2" / "avx512").
const char* IsaName(Isa isa);

/// Whether this CPU can run `isa` (scalar is always supported).
bool IsaSupported(Isa isa);

/// Rebuilds the dispatch table for `isa`; returns false (table unchanged)
/// when the CPU lacks it. Test/bench hook — not thread-safe, callers must
/// not race it against concurrent kernel use.
bool ForceIsa(Isa isa);

/// Per-ISA registration functions, each defined in its own TU so the
/// vector bodies can be compiled with -mavx2/-mavx512* without raising the
/// baseline ISA of the rest of the tree. FillAvx2/FillAvx512 degrade to
/// FillScalar on non-x86 builds.
void FillScalar(KernelTable* t);
void FillAvx2(KernelTable* t);
void FillAvx512(KernelTable* t);

namespace kernel_detail {

/// Shared cold-path helpers, inline here so every ISA TU executes the
/// byte-identical degenerate semantics.

inline bool HasNan(const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i])) return true;
  }
  return false;
}

inline void Fill(float* x, size_t n, float v) {
  for (size_t i = 0; i < n; ++i) x[i] = v;
}

/// Degenerate softmax tail: the max reduction came back exactly -inf, so
/// every logit is -inf (possibly alongside NaNs). NaN anywhere poisons the
/// output; otherwise the distribution is uniform.
inline void SoftmaxDegenerate(float* x, size_t n) {
  if (HasNan(x, n)) {
    Fill(x, n, std::numeric_limits<float>::quiet_NaN());
    return;
  }
  Fill(x, n, 1.0f / static_cast<float>(n));
}

inline void LogSoftmaxDegenerate(float* x, size_t n) {
  if (HasNan(x, n)) {
    Fill(x, n, std::numeric_limits<float>::quiet_NaN());
    return;
  }
  Fill(x, n, -std::log(static_cast<float>(n)));
}

}  // namespace kernel_detail

}  // namespace fvae

#endif  // FVAE_MATH_KERNELS_KERNEL_TABLE_H_
