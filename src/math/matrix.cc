#include "math/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"

namespace fvae {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    FVAE_CHECK(rows[r].size() == m.cols_) << "ragged initializer";
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, float stddev, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data_[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::XavierUniform(size_t fan_in, size_t fan_out, Rng& rng) {
  Matrix m(fan_in, fan_out);
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (size_t i = 0; i < m.size(); ++i) {
    m.data_[i] = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // Capacity-reusing: allocates only while growing past the high-water
  // mark, so a warmed-up serving encode is allocation-free (asserted by
  // serving_test's operator-new interposer).
  data_.assign(rows * cols, 0.0f);  // fvae-lint: allow(hot-alloc)
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = Row(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

void Matrix::Scale(float factor) {
  for (float& v : data_) v *= factor;
}

void Matrix::Add(const Matrix& other) {
  FVAE_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, float factor) {
  FVAE_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

float Matrix::FrobeniusNorm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(total));
}

float Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  FVAE_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_) << "shape mismatch";
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data_[i] - b.data_[i]));
  }
  return max_diff;
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < std::min(rows_, max_rows); ++r) {
    out << (r == 0 ? "[" : " [");
    for (size_t c = 0; c < std::min(cols_, max_cols); ++c) {
      if (c > 0) out << ", ";
      out << (*this)(r, c);
    }
    if (cols_ > max_cols) out << ", ...";
    out << "]";
    if (r + 1 < std::min(rows_, max_rows)) out << "\n";
  }
  if (rows_ > max_rows) out << "\n ...";
  out << "]";
  return out.str();
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  FVAE_CHECK(a.cols() == b.rows())
      << "gemm shape mismatch: " << a.cols() << " vs " << b.rows();
  out->Resize(a.rows(), b.cols());
  GemmAccumulate(a, b, out);
}

void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k && out->rows() == m && out->cols() == n)
      << "gemm-accumulate shape mismatch";
  // Shape checks stay here; the arithmetic runs in the ISA-dispatched
  // kernel layer (src/math/kernels/), which guarantees ascending-p
  // accumulation with no zero-operand skips in every tile and tail path.
  Kernels().gemm_accumulate(a.Row(0), b.Row(0), out->Row(0), m, k, n);
}

namespace {

// Rows of the output a pooled GEMM hands one kernel call are cut on this
// boundary: the kernels tile 4 output rows at a time, so the split never
// changes which tile code a row runs.
constexpr size_t kRowTile = 4;

// Writes rows [lo, hi) of src^T (src.cols() x src.rows(), row-major) into
// `panel`. The reads walk a 16-row strip of src at a time, so every cache
// line of the strip is reused across consecutive panel rows before it is
// evicted.
void PackTransposedRows(const Matrix& src, size_t lo, size_t hi,
                        float* panel) {
  constexpr size_t kStrip = 16;
  const size_t src_rows = src.rows();
  for (size_t c0 = 0; c0 < src_rows; c0 += kStrip) {
    const size_t c1 = std::min(src_rows, c0 + kStrip);
    for (size_t r = lo; r < hi; ++r) {
      float* dst = panel + r * src_rows;
      for (size_t c = c0; c < c1; ++c) dst[c] = src(c, r);
    }
  }
}

}  // namespace

void GemmNT(const Matrix& a, const Matrix& b, Matrix* out) {
  std::vector<float> panel;
  GemmNTPooled(a, b, out, nullptr, &panel);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* out) {
  GemmTNPooled(a, b, out, nullptr);
}

void GemmNTPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool, std::vector<float>* panel) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  FVAE_CHECK(b.cols() == k)
      << "gemm-nt shape mismatch: " << a.cols() << " vs " << b.cols();
  // panel = b^T (k x n), shared read-only by every row chunk below.
  panel->resize(k * n);
  float* bt = panel->data();
  ParallelForRange(pool, 0, k, /*align=*/16, [&](size_t lo, size_t hi) {
    PackTransposedRows(b, lo, hi, bt);
  });
  out->Resize(m, n);
  // Kernels() runs on the thread doing the arithmetic, so pool workers get
  // the same per-thread FTZ/DAZ mode as the serial caller.
  ParallelForRange(pool, 0, m, kRowTile, [&](size_t lo, size_t hi) {
    Kernels().gemm_accumulate(a.Row(lo), bt, out->Row(lo), hi - lo, k, n);
  });
}

void GemmTNPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool) {
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k)
      << "gemm-tn shape mismatch: " << a.rows() << " vs " << b.rows();
  out->Resize(m, n);
  ParallelForRange(pool, 0, m, kRowTile, [&](size_t lo, size_t hi) {
    const KernelTable& kt = Kernels();
    // a^T is packed one 4-row tile at a time, right before the kernel
    // multiplies it: the tile stays in L1 and no m x k panel is ever held.
    std::vector<float> tile(kRowTile * k);
    for (size_t i0 = lo; i0 < hi; i0 += kRowTile) {
      const size_t rows = std::min(kRowTile, hi - i0);
      for (size_t p = 0; p < k; ++p) {
        const float* src = a.Row(p) + i0;
        for (size_t r = 0; r < rows; ++r) tile[r * k + p] = src[r];
      }
      kt.gemm_accumulate(tile.data(), b.Row(0), out->Row(i0), rows, k, n);
    }
  });
}

void GemmAccumulatePooled(const Matrix& a, const Matrix& b, Matrix* out,
                          ThreadPool* pool) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k && out->rows() == m && out->cols() == n)
      << "gemm-accumulate shape mismatch";
  ParallelForRange(pool, 0, m, kRowTile, [&](size_t lo, size_t hi) {
    Kernels().gemm_accumulate(a.Row(lo), b.Row(0), out->Row(lo), hi - lo, k,
                              n);
  });
}

}  // namespace fvae
