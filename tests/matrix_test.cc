#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
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

// Straddle every kernel strip width (1/8/16/32) and the 4-row tile.
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

// Row-split over a pool must not move a single bit: rows are cut on the
// kernel's 4-row tile, so each row runs the code it runs serially.
TEST(GemmPooledTest, PooledIsBitwiseSerialForAnyPoolSize) {
  const size_t k = 37, n = 45;
  for (size_t m : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{63},
                   size_t{512}}) {
    Rng rng(m);
    const Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
    const Matrix b_nt = Matrix::Gaussian(n, k, 1.0f, rng);
    const Matrix a_tn = Matrix::Gaussian(k, m, 1.0f, rng);
    const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
    const Matrix base = Matrix::Gaussian(m, n, 1.0f, rng);
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
      GemmTNPooled(a_tn, b, &pooled, &pool);
      EXPECT_TRUE(BitwiseEqual(pooled, tn)) << "tn m=" << m << " t=" << threads;
      pooled = base;
      GemmAccumulatePooled(a, b, &pooled, &pool);
      EXPECT_TRUE(BitwiseEqual(pooled, acc))
          << "acc m=" << m << " t=" << threads;
    }
  }
}

}  // namespace
}  // namespace fvae
