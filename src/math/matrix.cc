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

void Matrix::Reshape(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
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
  Kernels().gemm_accumulate(a.Row(0), b.Row(0), out->Row(0), m, k, n, n, n);
}

void ResizeStripPanel(size_t k, size_t n, std::vector<float>* panel) {
  const size_t strips = (n + kGemmStripCols - 1) / kGemmStripCols;
  const size_t size = strips * k * kGemmStripCols;
  // Grow-only: the field loop's candidate counts go up and down field by
  // field, and each regrow would zero-fill the regrown tail for nothing.
  if (panel->size() < size) panel->resize(size);
  const size_t used = n % kGemmStripCols;
  if (used == 0) return;
  float* last = panel->data() + (strips - 1) * k * kGemmStripCols;
  for (size_t p = 0; p < k; ++p) {
    std::fill(last + p * kGemmStripCols + used,
              last + (p + 1) * kGemmStripCols, 0.0f);
  }
}

void PackStripColumn(const float* col, size_t k, size_t j, float* panel) {
  float* dst = panel + (j / kGemmStripCols) * k * kGemmStripCols +
               j % kGemmStripCols;
  for (size_t p = 0; p < k; ++p) dst[p * kGemmStripCols] = col[p];
}

void PackStripRow(const float* row, size_t k, size_t n, size_t p,
                  float* panel) {
  float* dst = panel + p * kGemmStripCols;
  for (size_t j0 = 0; j0 < n; j0 += kGemmStripCols) {
    std::copy(row + j0, row + std::min(n, j0 + kGemmStripCols), dst);
    dst += k * kGemmStripCols;
  }
}

void GemmNT(const Matrix& a, const Matrix& b, Matrix* out) {
  std::vector<float> panel;
  GemmNTPooled(a, b, out, nullptr, &panel);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* out) {
  GemmTNPooled(a, b, out, nullptr);
}

void GemmStripsPooled(const Matrix& a, const float* panel, Matrix* out,
                      ThreadPool* pool) {
  ParallelForRange(pool, 0, a.rows(), kGemmRowTile,
                   [&](size_t lo, size_t hi) {
    GemmStripsRows(a, panel, out, lo, hi);
  });
}

void GemmStripsRows(const Matrix& a, const float* panel, Matrix* out,
                    size_t lo, size_t hi) {
  const size_t k = a.cols(), n = out->cols();
  FVAE_CHECK(out->rows() == a.rows()) << "gemm-strips shape mismatch";
  // Kernels() runs on the thread doing the arithmetic, so pool workers get
  // the same per-thread FTZ/DAZ mode as the serial caller.
  const KernelTable& kt = Kernels();
  for (size_t j0 = 0; j0 < n; j0 += kGemmStripCols) {
    kt.gemm_accumulate(a.Row(lo), panel + j0 * k, out->Row(lo) + j0, hi - lo,
                       k, std::min(kGemmStripCols, n - j0), kGemmStripCols,
                       n);
  }
}

void GemmNTPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool, std::vector<float>* panel) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  FVAE_CHECK(b.cols() == k)
      << "gemm-nt shape mismatch: " << a.cols() << " vs " << b.cols();
  // b's rows are b^T's columns; each chunk packs whole strips.
  ResizeStripPanel(k, n, panel);
  float* bt = panel->data();
  ParallelForRange(pool, 0, n, kGemmStripCols, [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) PackStripColumn(b.Row(j), k, j, bt);
  });
  out->Resize(m, n);
  GemmStripsPooled(a, bt, out, pool);
}

void GemmTNPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool) {
  out->Reshape(a.cols(), b.cols());
  GemmTNPooled(a, b, out->data(), pool, nullptr);
}

void GemmTNPooled(const Matrix& a, const Matrix& b, float* out,
                  ThreadPool* pool, float* a_col_sums) {
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k)
      << "gemm-tn shape mismatch: " << a.rows() << " vs " << b.rows();
  ParallelForRange(pool, 0, m, kGemmRowTile, [&](size_t lo, size_t hi) {
    const KernelTable& kt = Kernels();
    // a^T is packed one row tile at a time, right before the kernel
    // multiplies it: the tile stays in L1 and no m x k panel is ever held.
    std::vector<float> tile(kGemmRowTile * k);
    for (size_t i0 = lo; i0 < hi; i0 += kGemmRowTile) {
      const size_t rows = std::min(kGemmRowTile, hi - i0);
      double sums[kGemmRowTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const float* src = a.Row(p) + i0;
        for (size_t r = 0; r < rows; ++r) tile[r * k + p] = src[r];
        if (a_col_sums == nullptr) continue;
        // A full tile's fixed trip count lets the sum vectorize.
        if (rows == kGemmRowTile) {
          for (size_t r = 0; r < kGemmRowTile; ++r) sums[r] += src[r];
        } else {
          for (size_t r = 0; r < rows; ++r) sums[r] += src[r];
        }
      }
      if (a_col_sums != nullptr) std::copy(sums, sums + rows, a_col_sums + i0);
      // Each tile zeroes its own rows of `out`, so no serial fill runs
      // ahead of the pool.
      float* out_rows = out + i0 * n;
      std::fill(out_rows, out_rows + rows * n, 0.0f);
      kt.gemm_accumulate(tile.data(), b.Row(0), out_rows, rows, k, n, n, n);
    }
  });
}

}  // namespace fvae
