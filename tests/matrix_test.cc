#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "math/kernels/kernel_table.h"
#include "math/matrix.h"

namespace fvae {
namespace {

Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(p, j);
      out(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

// Same shape and the same bits in every element (NaN payloads included).
bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The strip panel of the k x n operand b, packed row by row or (from b^T,
// whose rows are b's columns) column by column. The panel starts out NaN,
// so a float that neither ResizeStripPanel's padding nor a pack call wrote
// would poison the product.
std::vector<float> StripsOf(const Matrix& b, bool by_columns) {
  const size_t k = b.rows(), n = b.cols();
  const size_t strips = (n + kGemmStripCols - 1) / kGemmStripCols;
  std::vector<float> panel(strips * k * kGemmStripCols,
                           std::numeric_limits<float>::quiet_NaN());
  ResizeStripPanel(k, n, &panel);
  const Matrix bt = b.Transposed();
  for (size_t i = 0; i < (by_columns ? n : k); ++i) {
    if (by_columns) {
      PackStripColumn(bt.Row(i), k, i, panel.data());
    } else {
      PackStripRow(b.Row(i), k, n, i, panel.data());
    }
  }
  return panel;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
  m.at(1, 2) = 5.0f;
  EXPECT_EQ(m(1, 2), 5.0f);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(2, 1), 6.0f);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, FillAndSetZero) {
  Matrix m(3, 3, 2.0f);
  EXPECT_EQ(m(1, 1), 2.0f);
  m.Fill(7.0f);
  EXPECT_EQ(m(2, 0), 7.0f);
  m.SetZero();
  EXPECT_EQ(m(0, 2), 0.0f);
}

TEST(MatrixTest, Transposed) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0f);
  EXPECT_EQ(t(0, 0), 1.0f);
}

TEST(MatrixTest, ScaleAddAddScaled) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Scale(2.0f);
  EXPECT_EQ(a(1, 1), 8.0f);
  a.Add(b);
  EXPECT_EQ(a(0, 0), 12.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_EQ(a(0, 0), 2.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0f, 1e-6f);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{1.5, 1}});
  EXPECT_NEAR(Matrix::MaxAbsDiff(a, b), 1.0f, 1e-6f);
}

TEST(MatrixTest, GaussianHasRoughlyRightSpread) {
  Rng rng(3);
  Matrix m = Matrix::Gaussian(100, 100, 2.0f, rng);
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sum_sq += double(m.data()[i]) * m.data()[i];
  }
  const double n = double(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.3);
}

TEST(MatrixTest, XavierUniformWithinBounds) {
  Rng rng(5);
  Matrix m = Matrix::XavierUniform(30, 50, rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
  }
}

TEST(MatrixTest, ToStringTruncates) {
  Matrix m(20, 20, 1.0f);
  const std::string s = m.ToString(2, 2);
  EXPECT_NE(s.find("20x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ---------- GEMM family, vs naive reference ----------

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, GemmMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
  Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
  Matrix out;
  Gemm(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a, b)), 1e-3f);
}

TEST_P(GemmShapeTest, GemmNTMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 999 + k * 77 + n);
  Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
  Matrix b = Matrix::Gaussian(n, k, 1.0f, rng);
  Matrix out;
  GemmNT(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a, b.Transposed())),
            1e-3f);
}

TEST_P(GemmShapeTest, GemmTNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 13 + k * 7 + n);
  Matrix a = Matrix::Gaussian(k, m, 1.0f, rng);
  Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
  Matrix out;
  GemmTN(a, b, &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, NaiveMultiply(a.Transposed(), b)),
            1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(65, 64, 63),
                      std::make_tuple(100, 1, 100),
                      std::make_tuple(1, 128, 1),
                      std::make_tuple(130, 70, 90)));

TEST(GemmTest, GemmAccumulateAddsOnTop) {
  Rng rng(17);
  Matrix a = Matrix::Gaussian(4, 5, 1.0f, rng);
  Matrix b = Matrix::Gaussian(5, 6, 1.0f, rng);
  Matrix out(4, 6, 1.0f);
  GemmAccumulate(a, b, &out);
  Matrix expected = NaiveMultiply(a, b);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] += 1.0f;
  }
  EXPECT_LT(Matrix::MaxAbsDiff(out, expected), 1e-4f);
}

TEST(GemmTest, IdentityIsNeutral) {
  Rng rng(23);
  Matrix a = Matrix::Gaussian(6, 6, 1.0f, rng);
  Matrix out;
  Gemm(a, Matrix::Identity(6), &out);
  EXPECT_LT(Matrix::MaxAbsDiff(out, a), 1e-5f);
}

// ---------- NT/TN through the tiled kernel ----------

// Straddle every kernel strip width (1/8/16/32) and the 4- and 8-row tiles.
constexpr size_t kTailSizes[] = {1, 3, 7, 17, 31, 63, 65};

TEST(GemmTransposedTest, NTAndTNMatchNaiveAtTailSizes) {
  Rng rng(101);
  for (size_t m : kTailSizes) {
    for (size_t k : kTailSizes) {
      for (size_t n : kTailSizes) {
        const Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
        const Matrix b = Matrix::Gaussian(n, k, 1.0f, rng);
        Matrix nt;
        GemmNT(a, b, &nt);
        EXPECT_LT(Matrix::MaxAbsDiff(nt, NaiveMultiply(a, b.Transposed())),
                  1e-4f)
            << "nt m=" << m << " k=" << k << " n=" << n;

        const Matrix at = Matrix::Gaussian(k, m, 1.0f, rng);
        const Matrix bt = Matrix::Gaussian(k, n, 1.0f, rng);
        Matrix tn;
        GemmTN(at, bt, &tn);
        EXPECT_LT(Matrix::MaxAbsDiff(tn, NaiveMultiply(at.Transposed(), bt)),
                  1e-4f)
            << "tn m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// NT/TN are a pack plus GemmAccumulate, so on explicitly transposed
// operands they must agree with it bit for bit — infinities and NaNs
// included, whichever tile or tail path an element lands in.
TEST(GemmTransposedTest, SpecialsPropagateExactlyLikeGemmAccumulate) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(7);
  for (size_t m : {size_t{1}, size_t{5}, size_t{17}}) {
    for (size_t n : {size_t{1}, size_t{8}, size_t{33}}) {
      const size_t k = 6;
      Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
      Matrix b = Matrix::Gaussian(n, k, 1.0f, rng);
      a(0, 0) = 0.0f;
      b(0, 0) = kInf;  // 0 * inf = NaN in out(0, 0)
      a(m - 1, 1) = 0.0f;
      b(n - 1, 1) = kNan;  // 0 * NaN = NaN in out(m-1, n-1)
      a(m / 2, 2) = kInf;  // inf * finite: +-inf or NaN across a row
      Matrix nt;
      GemmNT(a, b, &nt);
      Matrix want(m, n);
      GemmAccumulate(a, b.Transposed(), &want);
      EXPECT_TRUE(BitwiseEqual(nt, want)) << "nt m=" << m << " n=" << n;
      EXPECT_TRUE(std::isnan(nt(0, 0)));
      EXPECT_TRUE(std::isnan(nt(m - 1, n - 1)));

      const Matrix at = a.Transposed();  // k x m
      const Matrix bt = b.Transposed();  // k x n
      Matrix tn;
      GemmTN(at, bt, &tn);
      EXPECT_TRUE(BitwiseEqual(tn, want)) << "tn m=" << m << " n=" << n;

      Matrix strips(m, n);
      GemmStripsPooled(a, StripsOf(b.Transposed(), false).data(), &strips,
                       nullptr);
      EXPECT_TRUE(BitwiseEqual(strips, want)) << "strips m=" << m
                                              << " n=" << n;
    }
  }
}

// A strip panel changes where B's floats live, not the FMA chain of any
// output element, so the strip GEMM is GemmAccumulate on the unpacked
// operand bit for bit: at every row-tile remainder, at widths below, at and
// across one 32-column strip, and at the field loop's 887 candidates.
TEST(GemmStripsTest, StripGemmIsBitwiseGemmAccumulate) {
  Rng rng(31);
  for (size_t m = 1; m <= 17; ++m) {
    for (size_t k : {size_t{1}, size_t{7}, size_t{256}}) {
      for (size_t n : {1, 15, 16, 17, 31, 32, 33, 63, 887}) {
        const Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
        const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
        const Matrix base = Matrix::Gaussian(m, n, 1.0f, rng);
        Matrix want = base;
        GemmAccumulate(a, b, &want);
        for (bool by_columns : {false, true}) {
          Matrix got = base;
          GemmStripsPooled(a, StripsOf(b, by_columns).data(), &got, nullptr);
          ASSERT_TRUE(BitwiseEqual(got, want))
              << "m=" << m << " k=" << k << " n=" << n
              << " by_columns=" << by_columns;
        }
        Matrix nt, plain(m, n);
        GemmNT(a, b.Transposed(), &nt);
        GemmAccumulate(a, b, &plain);
        ASSERT_TRUE(BitwiseEqual(nt, plain))
            << "nt m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// The panel only grows, and resizing it writes nothing but the last
// strip's padding.
TEST(GemmStripsTest, ResizeGrowsAndZeroesOnlyThePadding) {
  std::vector<float> grown;
  ResizeStripPanel(5, 40, &grown);
  EXPECT_EQ(grown.size(), 2 * 5 * kGemmStripCols);
  ResizeStripPanel(1, 1, &grown);
  EXPECT_EQ(grown.size(), 2 * 5 * kGemmStripCols);
  for (size_t n : {size_t{1}, size_t{31}, size_t{32}, size_t{33}}) {
    const size_t k = 3;
    const size_t strips = (n + kGemmStripCols - 1) / kGemmStripCols;
    std::vector<float> panel(strips * k * kGemmStripCols, 7.0f);
    ResizeStripPanel(k, n, &panel);
    ASSERT_EQ(panel.size(), strips * k * kGemmStripCols);
    for (size_t s = 0; s < strips; ++s) {
      for (size_t p = 0; p < k; ++p) {
        for (size_t c = 0; c < kGemmStripCols; ++c) {
          const bool pad = s * kGemmStripCols + c >= n;
          EXPECT_EQ(panel[(s * k + p) * kGemmStripCols + c],
                    pad ? 0.0f : 7.0f)
              << "n=" << n << " s=" << s << " p=" << p << " c=" << c;
        }
      }
    }
  }
}

// Regression: GemmTN used to skip zero entries of its transposed operand,
// which turned 0 * NaN into a silent 0 instead of NaN.
TEST(GemmTransposedTest, TNDoesNotSkipZeroMultipliers) {
  Matrix a(2, 3);  // k x m, all zeros
  Matrix b(2, 4, 1.0f);
  b(1, 2) = std::numeric_limits<float>::quiet_NaN();
  Matrix out;
  GemmTN(a, b, &out);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(std::isnan(out(i, j)), j == 2) << i << "," << j;
    }
  }
}

// Row-split over a pool must not move a single bit: rows are cut on
// multiples of kGemmRowTile, so each row runs the code it runs serially.
// The n = 45 operands span one full and one padded strip.
// The row counts end the split in an 8-row tile, a 4-row tile, single
// rows and mixes of them.
TEST(GemmPooledTest, PooledIsBitwiseSerialForAnyPoolSize) {
  const size_t k = 37, n = 45;
  for (size_t m : {1, 3, 4, 5, 8, 9, 13, 16, 17, 63, 512, 887}) {
    Rng rng(m);
    const Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
    const Matrix b_nt = Matrix::Gaussian(n, k, 1.0f, rng);
    const Matrix a_tn = Matrix::Gaussian(k, m, 1.0f, rng);
    const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
    const Matrix base = Matrix::Gaussian(m, n, 1.0f, rng);
    const std::vector<float> strips = StripsOf(b, /*by_columns=*/false);
    Matrix nt, tn, acc = base;
    GemmNT(a, b_nt, &nt);
    GemmTN(a_tn, b, &tn);
    GemmAccumulate(a, b, &acc);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ThreadPool pool(threads);
      std::vector<float> panel;
      Matrix pooled;
      GemmNTPooled(a, b_nt, &pooled, &pool, &panel);
      EXPECT_TRUE(BitwiseEqual(pooled, nt)) << "nt m=" << m << " t=" << threads;
      // GemmTNPooled keeps the output's buffer and zeroes it tile by tile:
      // starting from NaN shows any row a tile left unzeroed.
      pooled = Matrix(m, n, std::numeric_limits<float>::quiet_NaN());
      GemmTNPooled(a_tn, b, &pooled, &pool);
      EXPECT_TRUE(BitwiseEqual(pooled, tn)) << "tn m=" << m << " t=" << threads;
      pooled = base;
      GemmStripsPooled(a, strips.data(), &pooled, &pool);
      EXPECT_TRUE(BitwiseEqual(pooled, acc))
          << "strips m=" << m << " t=" << threads;
    }
  }
}

// The field loop writes GemmTNPooled's product straight into an embedding
// table's gradient slots: the pointer form must give the Matrix form's
// bits. Starting from NaN shows any float a tile left unwritten, and the
// sentinels past the end show any float written beyond it.
TEST(GemmPooledTest, SlabOutputIsBitwiseMatrixOutput) {
  const size_t k = 37, n = 45;
  for (size_t m : {1, 3, 8, 9, 17, 512, 887}) {
    Rng rng(m + 7);
    const Matrix a = Matrix::Gaussian(k, m, 1.0f, rng);
    const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
    Matrix want;
    GemmTN(a, b, &want);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      constexpr size_t kSentinels = 16;
      std::vector<float> slab(m * n + kSentinels,
                              std::numeric_limits<float>::quiet_NaN());
      GemmTNPooled(a, b, slab.data(), &pool, nullptr);
      EXPECT_EQ(std::memcmp(slab.data(), want.data(), m * n * sizeof(float)),
                0)
          << "m=" << m << " t=" << threads;
      for (size_t i = m * n; i < slab.size(); ++i) {
        EXPECT_TRUE(std::isnan(slab[i])) << "m=" << m << " past end " << i;
      }
    }
  }
}

// GemmTNPooled's column sums are the bias-gradient sums of the field loop:
// each must be bitwise the serial double loop over a's rows in ascending
// order, rounded to float, for full and partial row tiles and any pool,
// with +-inf and NaN propagating as in that loop. The product itself must
// not change.
TEST(GemmPooledTest, ColumnSumsAreBitwiseRowOrderSums) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const size_t k = 29, n = 13;
  for (size_t m : {1, 7, 8, 9, 887}) {
    Rng rng(m + 100);
    Matrix a = Matrix::Gaussian(k, m, 1.0f, rng);
    const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
    a(3, 0) = kInf;
    a(5, m - 1) = -kInf;
    a(11, m - 1) = kInf;  // inf + -inf = NaN
    a(k - 1, m / 2) = kNan;
    std::vector<double> want(m, 0.0);
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < m; ++j) want[j] += a(p, j);
    }
    Matrix product;
    GemmTN(a, b, &product);
    EXPECT_TRUE(std::isinf(want[0]) || m == 1);
    EXPECT_TRUE(std::isnan(want[m - 1]));
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      std::vector<float> sums(m, -1.0f);
      Matrix pooled(m, n, std::numeric_limits<float>::quiet_NaN());
      GemmTNPooled(a, b, pooled.data(), &pool, sums.data());
      EXPECT_TRUE(BitwiseEqual(pooled, product))
          << "m=" << m << " t=" << threads;
      for (size_t j = 0; j < m; ++j) {
        // Where two NaNs meet, which payload survives is the compiler's
        // operand order, so NaN only has to stay NaN.
        if (std::isnan(want[j])) {
          EXPECT_TRUE(std::isnan(sums[j])) << "m=" << m << " j=" << j;
        } else {
          const float rounded = static_cast<float>(want[j]);
          EXPECT_EQ(std::memcmp(&sums[j], &rounded, sizeof(float)), 0)
              << "m=" << m << " j=" << j << " t=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fvae
