#ifndef FVAE_MATH_MATRIX_H_
#define FVAE_MATH_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace fvae {

/// Dense row-major float matrix.
///
/// The workhorse container for the neural-network substrate. Deliberately
/// minimal: storage, element access, and the handful of BLAS-like kernels
/// the models need (see functions below and vector_ops.h). Copyable and
/// movable; copies are deep.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Matrix filled with `value`.
  Matrix(size_t rows, size_t cols, float value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Builds from nested initializer data (row major); all rows must have
  /// equal length.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Matrix with i.i.d. N(0, stddev^2) entries.
  static Matrix Gaussian(size_t rows, size_t cols, float stddev, Rng& rng);

  /// Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
  static Matrix XavierUniform(size_t fan_in, size_t fan_out, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    FVAE_CHECK(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    FVAE_CHECK(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Raw pointer to the start of row r.
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Sets every entry to zero.
  void SetZero() { Fill(0.0f); }

  /// Resizes to rows x cols, discarding contents (zero-filled).
  void Resize(size_t rows, size_t cols);

  /// Resizes to rows x cols without clearing: the buffer keeps what it held
  /// (zeros where it grows), for scratch whose users write before reading.
  void Reshape(size_t rows, size_t cols);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// In-place scalar ops.
  void Scale(float factor);
  void Add(const Matrix& other);              // this += other
  void AddScaled(const Matrix& other, float factor);  // this += factor*other

  /// Frobenius norm.
  float FrobeniusNorm() const;

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  static float MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Compact textual rendering (for logging / debugging small matrices).
  std::string ToString(size_t max_rows = 8, size_t max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

class ThreadPool;

// Every GEMM below runs on the register-tiled Kernels().gemm_accumulate, so
// each output element is accumulated in ascending-p order with no
// zero-operand skips, whatever the entry point or the layout of the right
// operand (see kernel_table.h).

/// out = a * b; shapes: (m x k) * (k x n) -> (m x n).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T; shapes: (m x k) * (n x k)^T -> (m x n).
void GemmNT(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b; shapes: (k x m)^T * (k x n) -> (m x n).
void GemmTN(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a * b (accumulating variant of Gemm).
void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* out);

// Strip panels: a k x n right operand B held as ceil(n / kGemmStripCols)
// strips, strip s being B's columns [32s, 32s + 32) as k contiguous rows of
// 32 floats, the last strip zero-padded. A 32-column kernel tile then reads
// its k steps as one sequential run (not n floats apart), and one strip
// stays cache-hot while a row chunk runs all of its row tiles against it.

/// Grows `panel` (never shrinking it) to hold a k x n operand and zeroes
/// the last strip's padding.
void ResizeStripPanel(size_t k, size_t n, std::vector<float>* panel);

/// Writes `col` (k floats) as column j of a k-row strip panel.
void PackStripColumn(const float* col, size_t k, size_t j, float* panel);

/// Writes `row` (n floats) as row p of the strip panel of a k x n operand.
void PackStripRow(const float* row, size_t k, size_t n, size_t p,
                  float* panel);

// Pooled forms: the rows of `out` are cut on multiples of kGemmRowTile and
// split over `pool` plus the calling thread, so every row runs the same
// kernel tile it runs serially and the result is bitwise identical for any
// pool size. A null pool runs serially. Training-only: the serving encode
// chain keeps the serial, unpacked kernel call.

/// out += a * B for the a.cols() x out->cols() operand B in strip layout.
/// Each row chunk runs strip by strip.
void GemmStripsPooled(const Matrix& a, const float* panel, Matrix* out,
                      ThreadPool* pool);

/// One row chunk of GemmStripsPooled: rows [lo, hi) of out += a * B, for
/// callers that run their own pooled pass and cut it on multiples of
/// kGemmRowTile.
void GemmStripsRows(const Matrix& a, const float* panel, Matrix* out,
                    size_t lo, size_t hi);

/// GemmNT with rows of `out` split over `pool`. b's rows are packed as the
/// strip panel of b^T into `panel`, caller-owned scratch that is reused
/// across calls.
void GemmNTPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool, std::vector<float>* panel);

/// GemmTN with rows of `out` split over `pool`. a^T is packed one
/// kGemmRowTile-row tile at a time inside each chunk, so no panel outlives
/// the call.
void GemmTNPooled(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool);

/// The same product into `out`, a.cols() rows of b.cols() contiguous
/// floats (the field loop passes an embedding table's gradient slots),
/// bitwise the Matrix form's result whatever `out` held before. A non-null
/// `a_col_sums` (a.cols() floats) receives each column sum of a,
/// accumulated in double in ascending row order while the column is packed
/// and then rounded to float.
void GemmTNPooled(const Matrix& a, const Matrix& b, float* out,
                  ThreadPool* pool, float* a_col_sums);

}  // namespace fvae

#endif  // FVAE_MATH_MATRIX_H_
