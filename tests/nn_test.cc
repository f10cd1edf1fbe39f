#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "grad_check.h"
#include "math/kernels/kernel_table.h"
#include "math/matrix.h"
#include "math/special.h"
#include "math/vector_ops.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace fvae::nn {
namespace {

TEST(DenseLayerTest, ForwardMatchesManual) {
  Rng rng(1);
  DenseLayer layer(2, 3, rng);
  layer.weight() = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  layer.bias() = Matrix::FromRows({{0.5, -0.5, 0.0}});
  Matrix input = Matrix::FromRows({{1, 1}, {2, 0}});
  Matrix output;
  layer.Forward(input, &output);
  EXPECT_FLOAT_EQ(output(0, 0), 5.5f);   // 1+4+0.5
  EXPECT_FLOAT_EQ(output(0, 1), 6.5f);   // 2+5-0.5
  EXPECT_FLOAT_EQ(output(1, 2), 6.0f);   // 2*3
}

TEST(DenseLayerTest, GradientsMatchNumerical) {
  Rng rng(2);
  DenseLayer layer(4, 3, rng);
  Matrix input = Matrix::Gaussian(5, 4, 1.0f, rng);
  EXPECT_LT(MaxGradientError(layer, input, 77), 2e-2);
}

TEST(DenseLayerTest, NullGradInputSkipsInputGradient) {
  Rng rng(3);
  DenseLayer layer(2, 2, rng);
  Matrix input = Matrix::Gaussian(3, 2, 1.0f, rng);
  Matrix output;
  layer.Forward(input, &output);
  Matrix grad_out(3, 2, 1.0f);
  layer.Backward(input, grad_out, nullptr);  // must not crash
  SUCCEED();
}

// One tanh block: the tanh backward on its own dense layer's output.
TEST(MlpTest, OneBlockGradientsMatchNumerical) {
  Rng rng(4);
  Mlp mlp({6, 6}, rng);
  EXPECT_LT(MaxGradientError(mlp, Matrix::Gaussian(4, 6, 1.0f, rng), 5),
            1e-2);
}

// Three blocks, so the backward pass chains through an interior dense
// layer, not just the two ends.
TEST(MlpTest, GradientsMatchNumerical) {
  Rng rng(10);
  Mlp mlp({7, 5, 3, 2}, rng);
  EXPECT_LT(MaxGradientError(mlp, Matrix::Gaussian(4, 7, 1.0f, rng), 11),
            3e-2);
}

TEST(MlpTest, OutputBoundedByOne) {
  Rng rng(12);
  Mlp mlp({2, 4, 4}, rng);
  Matrix input = Matrix::Gaussian(8, 2, 10.0f, rng);
  const Matrix& output = mlp.Forward(input);
  for (size_t i = 0; i < output.size(); ++i) {
    EXPECT_LE(std::fabs(output.data()[i]), 1.0f);
  }
}

TEST(MlpTest, DimsExposed) {
  Rng rng(13);
  Mlp mlp({7, 5, 3, 2}, rng);
  EXPECT_EQ(mlp.in_dim(), 7u);
  EXPECT_EQ(mlp.out_dim(), 2u);
  EXPECT_EQ(mlp.num_dense_layers(), 3u);
}

// ---------- Infer: the const inference pass ----------

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix InferOf(const DenseLayer& layer, const Matrix& input,
               std::vector<Matrix>* /*scratch*/) {
  Matrix out;
  layer.Infer(input, &out);
  return out;
}
Matrix InferOf(const Mlp& mlp, const Matrix& input,
               std::vector<Matrix>* scratch) {
  return mlp.Infer(input, scratch);
}

/// Compares the parameter gradients of two twin layers bit for bit.
template <typename Net>
void ExpectSameParamGrads(Net& a, Net& b, const std::string& where) {
  std::vector<ParamRef> a_params, b_params;
  a.CollectParams(&a_params);
  b.CollectParams(&b_params);
  ASSERT_EQ(a_params.size(), b_params.size());
  for (size_t i = 0; i < a_params.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(*a_params[i].grad, *b_params[i].grad))
        << where << " parameter " << i;
  }
}

/// Checks Infer against Forward on two twin layers built by `make`:
///  - Infer's output equals Forward's bit for bit, also on a warm scratch
///    that last saw a different batch shape;
///  - Infer leaves Forward's state alone: a Backward after an interleaved
///    Infer on other data matches the twin's Backward bit for bit.
template <typename Make>
void ExpectInferMatchesForward(const Make& make, size_t in_dim,
                               uint64_t seed) {
  Rng rng(seed);
  const Matrix x = Matrix::Gaussian(5, in_dim, 1.0f, rng);
  const Matrix other = Matrix::Gaussian(3, in_dim, 1.0f, rng);
  auto plain = make();
  auto probed = make();

  const Matrix forward_out = ForwardOf(plain, x);
  std::vector<Matrix> scratch;
  InferOf(probed, other, &scratch);  // warms scratch at 3 rows
  EXPECT_TRUE(BitwiseEqual(forward_out, InferOf(probed, x, &scratch)));

  ForwardOf(probed, x);
  InferOf(probed, other, &scratch);  // between Forward and Backward
  const Matrix grad = Matrix::Gaussian(x.rows(), forward_out.cols(), 1.0f,
                                       rng);
  EXPECT_TRUE(BitwiseEqual(BackwardOf(plain, x, grad),
                           BackwardOf(probed, x, grad)));
  ExpectSameParamGrads(plain, probed, "infer");
}

TEST(InferTest, DenseMatchesForward) {
  ExpectInferMatchesForward(
      [] {
        Rng rng(21);
        return DenseLayer(6, 4, rng);
      },
      6, 1);
}

TEST(InferTest, OneBlockMlpMatchesForward) {
  ExpectInferMatchesForward(
      [] {
        Rng rng(22);
        return Mlp({7, 7}, rng);
      },
      7, 2);
}

TEST(InferTest, MlpMatchesForward) {
  ExpectInferMatchesForward(
      [] {
        Rng rng(23);
        return Mlp({6, 8, 5, 3}, rng);
      },
      6, 4);
}

/// Checks a pooled Forward against the serial one on twin layers built by
/// `make`, for pools of 1, 2 and 4 and batches that end the row split in
/// 8-row tiles, 4-row tiles and single rows: the output is bitwise the
/// serial Forward's and Infer's, and the pooled Backward gives bitwise the
/// serial input and parameter gradients.
template <typename Make>
void ExpectPooledForwardMatchesSerial(const Make& make, size_t in_dim,
                                      uint64_t seed) {
  Rng rng(seed);
  for (size_t rows : {1, 5, 8, 13, 64, 131}) {
    const Matrix x = Matrix::Gaussian(rows, in_dim, 1.0f, rng);
    auto serial = make();
    std::vector<Matrix> scratch;
    const Matrix want = ForwardOf(serial, x);
    ASSERT_TRUE(BitwiseEqual(want, InferOf(serial, x, &scratch)))
        << "rows=" << rows;
    const Matrix grad = Matrix::Gaussian(rows, want.cols(), 1.0f, rng);
    const Matrix want_grad_in = BackwardOf(serial, x, grad);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ThreadPool pool(threads);
      auto pooled = make();
      EXPECT_TRUE(BitwiseEqual(ForwardOf(pooled, x, &pool), want))
          << "rows=" << rows << " threads=" << threads;
      EXPECT_TRUE(BitwiseEqual(BackwardOf(pooled, x, grad, &pool),
                               want_grad_in))
          << "rows=" << rows << " threads=" << threads;
      ExpectSameParamGrads(pooled, serial,
                           "rows=" + std::to_string(rows) +
                               " threads=" + std::to_string(threads));
    }
  }
}

TEST(PooledForwardTest, DenseMatchesSerial) {
  ExpectPooledForwardMatchesSerial(
      [] {
        Rng rng(31);
        return DenseLayer(37, 45, rng);
      },
      37, 5);
}

TEST(PooledForwardTest, OneBlockMlpMatchesSerial) {
  ExpectPooledForwardMatchesSerial(
      [] {
        Rng rng(33);
        return Mlp({33, 33}, rng);
      },
      33, 6);
}

TEST(PooledForwardTest, TwoLayerMlpMatchesSerial) {
  ExpectPooledForwardMatchesSerial(
      [] {
        Rng rng(37);
        return Mlp({24, 40, 16}, rng);
      },
      24, 7);
}

// ---------- Adam ----------

TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix x(1, 4, 5.0f);
  Matrix grad(1, 4, 0.0f);
  Matrix target = Matrix::FromRows({{1, -2, 3, 0.5}});
  AdamOptimizer opt({{&x, &grad}}, 0.05f);
  for (int step = 0; step < 2000; ++step) {
    for (size_t i = 0; i < 4; ++i) {
      grad.data()[i] = 2.0f * (x.data()[i] - target.data()[i]);
    }
    opt.Step();
  }
  EXPECT_LT(Matrix::MaxAbsDiff(x, target), 1e-2f);
  EXPECT_EQ(opt.step_count(), 2000);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Matrix x(1, 2, 1.0f);
  Matrix grad(1, 2, 3.0f);
  AdamOptimizer opt({{&x, &grad}}, 0.01f);
  opt.Step();
  EXPECT_EQ(grad(0, 0), 0.0f);
  EXPECT_EQ(grad(0, 1), 0.0f);
}

// ---------- EmbeddingTable ----------

TEST(EmbeddingTableTest, CreatesRowsLazily) {
  EmbeddingTable table(4, /*with_bias=*/true, 0.1f, 1);
  EXPECT_EQ(table.num_rows(), 0u);
  const uint32_t r0 = table.GetOrCreateRow(1000);
  const uint32_t r1 = table.GetOrCreateRow(2000);
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  EXPECT_EQ(table.GetOrCreateRow(1000), 0u);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_FALSE(table.FindRow(3000).has_value());
  EXPECT_EQ(table.FindRow(2000).value(), 1u);
}

TEST(EmbeddingTableTest, NewRowsAreRandomlyInitialized) {
  EmbeddingTable table(16, false, 0.5f, 2);
  const uint32_t r0 = table.GetOrCreateRow(1);
  const uint32_t r1 = table.GetOrCreateRow(2);
  double diff = 0.0;
  for (size_t d = 0; d < 16; ++d) {
    diff += std::fabs(double(table.Row(r0)[d]) - table.Row(r1)[d]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(EmbeddingTableTest, ZeroInitStddevGivesZeroRows) {
  EmbeddingTable table(4, false, 0.0f, 3);
  const uint32_t row = table.GetOrCreateRow(5);
  for (float v : table.Row(row)) EXPECT_EQ(v, 0.0f);
}

TEST(EmbeddingTableTest, AdagradStepMovesAgainstGradient) {
  EmbeddingTable table(2, true, 0.0f, 4);
  const uint32_t row = table.GetOrCreateRow(7);
  const std::vector<float> grad{1.0f, -2.0f};
  table.AccumulateGrad(row, grad, 0.5f);
  EXPECT_EQ(table.touched_rows().size(), 1u);
  table.ApplyGradients(0.1f);
  // AdaGrad first step: w -= lr * g / (|g| + eps) = -lr * sign(g).
  EXPECT_NEAR(table.Row(row)[0], -0.1f, 1e-5f);
  EXPECT_NEAR(table.Row(row)[1], 0.1f, 1e-5f);
  EXPECT_NEAR(table.bias(row), -0.1f, 1e-5f);
  EXPECT_TRUE(table.touched_rows().empty());
}

TEST(EmbeddingTableTest, GradientsAccumulateUntilApplied) {
  EmbeddingTable table(1, false, 0.0f, 5);
  const uint32_t row = table.GetOrCreateRow(1);
  const std::vector<float> g{1.0f};
  table.AccumulateGrad(row, g);
  table.AccumulateGrad(row, g);
  EXPECT_FLOAT_EQ(table.RowGrad(row)[0], 2.0f);
  EXPECT_EQ(table.touched_rows().size(), 1u);  // deduplicated
  table.ApplyGradients(0.1f);
  EXPECT_FLOAT_EQ(table.RowGrad(row)[0], 0.0f);
}

bool SameFloats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Key `key`'s initial row under `seed`: the scalar twin of normal_fill.
std::vector<float> ReferenceRow(uint64_t seed, uint64_t key, size_t dim,
                                float stddev) {
  std::vector<float> row(dim);
  NormalFill(seed, key, stddev, row.data(), dim);
  return row;
}

// Rows created deferred and filled on a pool must hold their keys'
// reference draws, exactly as rows created one at a time do. The odd dim
// ends each row half way through a Box-Muller pair.
TEST(EmbeddingTableTest, DeferredRowsMatchGetOrCreateRow) {
  constexpr size_t kDim = 7;
  constexpr float kStddev = 0.3f;
  ThreadPool pool(4);
  EmbeddingTable eager(kDim, /*with_bias=*/true, kStddev, 11);
  EmbeddingTable deferred(kDim, /*with_bias=*/true, kStddev, 11);
  std::vector<uint32_t> eager_rows, deferred_rows;
  // Two rounds of 45 lookups over 61 keys: new rows, repeats within a
  // round, and rows created in an earlier round.
  for (uint64_t round = 0; round < 2; ++round) {
    for (uint64_t i = round * 45; i < (round + 1) * 45; ++i) {
      const uint64_t key = 1000 + (i * 37) % 61;
      eager_rows.push_back(eager.GetOrCreateRow(key));
      deferred_rows.push_back(deferred.GetOrCreateRowDeferred(key));
    }
    deferred.InitPendingRows(&pool);
  }
  EXPECT_EQ(deferred_rows, eager_rows);
  ASSERT_EQ(deferred.num_rows(), eager.num_rows());
  for (uint32_t row = 0; row < eager.num_rows(); ++row) {
    const std::vector<float> want =
        ReferenceRow(11, eager.KeyOfRow(row), kDim, kStddev);
    EXPECT_TRUE(SameFloats(eager.Row(row), want)) << "row " << row;
    EXPECT_TRUE(SameFloats(deferred.Row(row), want)) << "row " << row;
  }
}

// A key's initial row does not depend on which keys came before it, on
// whether it was created eagerly or deferred, or on the pool size; a table
// with another seed gives the key another row.
TEST(EmbeddingTableTest, RowInitDependsOnlyOnSeedAndKey) {
  constexpr size_t kDim = 33;
  constexpr float kStddev = 0.2f;
  // Random keys, plus keys one golden-ratio increment apart (where a
  // linear seed + key mix would overlap generator lanes) and the extremes.
  std::vector<uint64_t> keys = {0, 1, 0x9E3779B97F4A7C15ULL,
                                2 * 0x9E3779B97F4A7C15ULL, ~uint64_t{0}};
  Rng key_rng(5);
  for (int i = 0; i < 300; ++i) keys.push_back(key_rng.Next64());
  std::vector<uint64_t> reversed(keys.rbegin(), keys.rend());

  EmbeddingTable forward(kDim, /*with_bias=*/false, kStddev, 13);
  EmbeddingTable backward(kDim, /*with_bias=*/false, kStddev, 13);
  for (uint64_t key : keys) forward.GetOrCreateRow(key);
  for (uint64_t key : reversed) backward.GetOrCreateRow(key);
  std::vector<std::unique_ptr<EmbeddingTable>> tables;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    for (const auto* order : {&keys, &reversed}) {
      tables.push_back(std::make_unique<EmbeddingTable>(
          kDim, /*with_bias=*/false, kStddev, 13));
      for (uint64_t key : *order) tables.back()->GetOrCreateRowDeferred(key);
      tables.back()->InitPendingRows(&pool);
    }
  }
  EmbeddingTable other_seed(kDim, /*with_bias=*/false, kStddev, 14);
  for (uint64_t key : keys) {
    const std::span<const float> want = forward.Row(*forward.FindRow(key));
    EXPECT_TRUE(SameFloats(backward.Row(*backward.FindRow(key)), want))
        << "reversed, key " << key;
    for (size_t t = 0; t < tables.size(); ++t) {
      EXPECT_TRUE(SameFloats(tables[t]->Row(*tables[t]->FindRow(key)), want))
          << "deferred table " << t << ", key " << key;
    }
    EXPECT_FALSE(SameFloats(other_seed.Row(other_seed.GetOrCreateRow(key)),
                            want))
        << "other seed, key " << key;
  }
}

// Over 4,096 consecutive keys x 256 dims (2^20 draws), the initial values
// look like N(0, stddev^2): mean, variance, the Kolmogorov-Smirnov
// distance to its CDF, and no correlation between neighbouring keys' rows.
// The bounds are about five standard errors at this sample size; the seed
// is fixed, so the test is deterministic. The tails reach as far as a
// normal sample of this size does (max |z| about 5; at least 4.5), and no
// further than float Box-Muller can: sqrt(-2 ln 2^-24) ~ 5.77, the radius
// of the smallest 24-bit uniform.
TEST(EmbeddingTableTest, RowInitIsNormalWithTheGivenStddev) {
  constexpr size_t kKeys = 4096, kDim = 256;
  constexpr double kStddev = 0.25;
  ThreadPool pool(4);
  EmbeddingTable table(kDim, /*with_bias=*/false, kStddev, 17);
  for (uint64_t key = 0; key < kKeys; ++key) {
    table.GetOrCreateRowDeferred(key);
  }
  table.InitPendingRows(&pool);
  std::vector<double> draws;
  draws.reserve(kKeys * kDim);
  double lag_product = 0.0;
  for (uint32_t row = 0; row < kKeys; ++row) {
    const std::span<const float> values = table.Row(row);
    draws.insert(draws.end(), values.begin(), values.end());
    if (row == 0) continue;
    const std::span<const float> prev = table.Row(row - 1);
    for (size_t d = 0; d < kDim; ++d) {
      lag_product += double(values[d]) * prev[d];
    }
  }
  const double n = static_cast<double>(draws.size());
  double sum = 0.0, sum_sq = 0.0;
  for (double x : draws) {
    sum += x;
    sum_sq += x * x;
  }
  const double var = kStddev * kStddev;
  EXPECT_NEAR(sum / n, 0.0, 5.0 * kStddev / std::sqrt(n));
  EXPECT_NEAR(sum_sq / n / var, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(lag_product / ((kKeys - 1) * kDim) / var, 0.0,
              5.0 / std::sqrt((kKeys - 1) * kDim));
  std::sort(draws.begin(), draws.end());
  const double max_z =
      std::max(-draws.front(), draws.back()) / kStddev;
  EXPECT_LE(max_z, std::sqrt(-2.0 * std::log(0x1p-24)));
  EXPECT_GE(max_z, 4.5);
  double ks = 0.0;
  for (size_t i = 0; i < draws.size(); ++i) {
    const double cdf =
        0.5 * std::erfc(-draws[i] / (kStddev * std::sqrt(2.0)));
    ks = std::max({ks, cdf - i / n, (i + 1) / n - cdf});
  }
  // The 0.1% critical value of the one-sample KS test is 1.95 / sqrt(n).
  EXPECT_LT(ks, 1.95 / std::sqrt(n));
}

// ScatterGrad on a pool must leave every row gradient and the touched
// order exactly as one AccumulateGrad per ref, in ref order: each row sums
// its terms in that order (float addition does not reassociate).
TEST(EmbeddingTableTest, ScatterGradMatchesAccumulateGrad) {
  constexpr size_t kDim = 9;
  ThreadPool pool(4);
  EmbeddingTable serial(kDim, /*with_bias=*/false, 0.1f, 17);
  EmbeddingTable scattered(kDim, /*with_bias=*/false, 0.1f, 17);
  for (uint64_t key = 0; key < 30; ++key) {
    serial.GetOrCreateRow(key);
    scattered.GetOrCreateRow(key);
  }
  Rng rng(23);
  Matrix grads(40, kDim);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads.data()[i] = static_cast<float>(rng.Normal());
  }
  // Items in batch order, several refs per item; rows repeat many times.
  std::vector<EmbeddingTable::SparseRef> refs;
  for (uint32_t item = 0; item < 40; ++item) {
    for (uint32_t f = 0; f < 4; ++f) {
      refs.push_back({item, uint32_t(rng.UniformInt(uint64_t{12}) * 2),
                      static_cast<float>(rng.Uniform(-2.0, 2.0))});
    }
  }
  std::vector<float> scaled(kDim);
  for (const EmbeddingTable::SparseRef& ref : refs) {
    for (size_t d = 0; d < kDim; ++d) {
      scaled[d] = ref.value * grads(ref.item, d);
    }
    serial.AccumulateGrad(ref.row, scaled);
  }
  scattered.ScatterGrad(refs, grads, &pool);
  EXPECT_EQ(scattered.touched_rows(), serial.touched_rows());
  for (uint32_t row = 0; row < 30; ++row) {
    EXPECT_TRUE(SameFloats(scattered.RowGrad(row), serial.RowGrad(row)))
        << "row " << row;
  }
  // The transpose scratch is reset: a second scatter adds on top.
  serial.ApplyGradients(0.1f);
  scattered.ApplyGradients(0.1f, &pool);
  scattered.ScatterGrad(refs, grads, &pool);
  for (const EmbeddingTable::SparseRef& ref : refs) {
    for (size_t d = 0; d < kDim; ++d) {
      scaled[d] = ref.value * grads(ref.item, d);
    }
    serial.AccumulateGrad(ref.row, scaled);
  }
  EXPECT_EQ(scattered.touched_rows(), serial.touched_rows());
  for (uint32_t row = 0; row < 30; ++row) {
    EXPECT_TRUE(SameFloats(scattered.RowGrad(row), serial.RowGrad(row)))
        << "row " << row;
    EXPECT_TRUE(SameFloats(scattered.Row(row), serial.Row(row))) << row;
  }
}

// AdaGrad split over a pool updates every row exactly as the serial pass
// does and lists dirty rows in the same (touched) order.
TEST(EmbeddingTableTest, PooledAdagradMatchesSerial) {
  ThreadPool pool(4);
  EmbeddingTable serial(5, /*with_bias=*/true, 0.2f, 13);
  EmbeddingTable pooled(5, /*with_bias=*/true, 0.2f, 13);
  for (uint64_t key = 0; key < 40; ++key) {
    serial.GetOrCreateRow(key);
    pooled.GetOrCreateRow(key);
  }
  std::vector<float> grad(5);
  for (uint32_t step = 0; step < 3; ++step) {
    for (uint32_t t = 0; t < 50; ++t) {
      const uint32_t row = (t * 17 + step * 5) % 40;
      for (size_t d = 0; d < grad.size(); ++d) {
        grad[d] = 0.01f * float((t + d * 3 + step) % 11) - 0.05f;
      }
      serial.AccumulateGrad(row, grad, grad[0]);
      pooled.MarkTouched(row);
      pooled.AddGrad(row, grad, grad[0]);
    }
    EXPECT_EQ(pooled.touched_rows(), serial.touched_rows());
    serial.ApplyGradients(0.1f);
    pooled.ApplyGradients(0.1f, &pool);
  }
  for (uint32_t row = 0; row < 40; ++row) {
    EXPECT_TRUE(SameFloats(pooled.Row(row), serial.Row(row))) << row;
    EXPECT_TRUE(SameFloats(pooled.AdagradRow(row), serial.AdagradRow(row)))
        << row;
    EXPECT_EQ(pooled.bias(row), serial.bias(row)) << row;
    EXPECT_EQ(pooled.adagrad_bias(row), serial.adagrad_bias(row)) << row;
  }
  EXPECT_TRUE(pooled.touched_rows().empty());
  EXPECT_EQ(pooled.TakeDirtyRows(), serial.TakeDirtyRows());
}

TEST(EmbeddingTableTest, AdagradShrinksEffectiveStep) {
  EmbeddingTable table(1, false, 0.0f, 6);
  const uint32_t row = table.GetOrCreateRow(1);
  const std::vector<float> g{1.0f};
  table.AccumulateGrad(row, g);
  table.ApplyGradients(0.1f);
  const float first_step = std::fabs(table.Row(row)[0]);
  const float before = table.Row(row)[0];
  table.AccumulateGrad(row, g);
  table.ApplyGradients(0.1f);
  const float second_step = std::fabs(table.Row(row)[0] - before);
  EXPECT_LT(second_step, first_step);
}

// ---------- EmbeddingTable: row kernels and block storage ----------

/// Bitwise equality of two rows, except that any NaN matches any NaN.
bool SameBitsOrBothNan(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

/// Normal draws with +-0, +-inf, NaN and subnormals at every third entry.
std::vector<float> RowValues(size_t n, Rng* rng) {
  constexpr float kSpecials[] = {0.0f,  -0.0f,  HUGE_VALF, -HUGE_VALF,
                                 NAN,   1e-40f, -3e-39f,   1.0e-3f};
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i % 3 == 0 ? kSpecials[rng->UniformInt(std::size(kSpecials))]
                      : static_cast<float>(rng->Normal());
  }
  return v;
}

// AddGrad is `g += grad`, ScatterGrad `g += v * grad` with the product
// rounded first, and ApplyGradients the scalar AdaGrad formula, bit for bit
// on whatever ISA the dispatch table runs (the forced-ISA legs rerun this
// per ISA). A fused multiply-add anywhere changes some of these bits.
TEST(EmbeddingTableTest, RowKernelsAreScalarFormulasBitwise) {
  Kernels();  // FTZ/DAZ on this thread before any reference arithmetic
  Rng rng(29);
  constexpr float kScale = -0.75f;
  constexpr float kLr = 0.1f;
  for (size_t dim : {1, 7, 15, 16, 17, 31, 33, 256}) {
    EmbeddingTable table(dim, /*with_bias=*/false, 0.0f, 31);
    const uint32_t row = table.GetOrCreateRow(1);
    const std::vector<float> w0 = RowValues(dim, &rng);
    std::vector<float> acc0 = RowValues(dim, &rng);
    for (size_t d = 1; d < dim; d += 4) acc0[d] = std::fabs(acc0[d]);
    const std::vector<float> a = RowValues(dim, &rng);
    Matrix b(1, dim);
    const std::vector<float> b_values = RowValues(dim, &rng);
    std::copy(b_values.begin(), b_values.end(), b.Row(0));
    std::copy(w0.begin(), w0.end(), table.Row(row).begin());
    table.RestoreAdagradRow(row, acc0, 0.0f);

    table.AccumulateGrad(row, a);
    const std::vector<EmbeddingTable::SparseRef> refs{{0, row, kScale}};
    table.ScatterGrad(refs, b, nullptr);
    std::vector<float> g(dim);
    for (size_t d = 0; d < dim; ++d) {
      // volatile: the product is rounded on its own even where the
      // compiler could contract it into an FMA.
      const volatile float product = kScale * b_values[d];
      g[d] = (0.0f + a[d]) + product;
    }
    EXPECT_TRUE(SameBitsOrBothNan(table.RowGrad(row), g)) << "dim " << dim;

    table.ApplyGradients(kLr);
    std::vector<float> want_w(dim), want_acc(dim);
    for (size_t d = 0; d < dim; ++d) {
      const volatile float square = g[d] * g[d];
      want_acc[d] = acc0[d] + square;
      want_w[d] = w0[d] - kLr * g[d] / (std::sqrt(want_acc[d]) + 1e-8f);
    }
    EXPECT_TRUE(SameBitsOrBothNan(table.AdagradRow(row), want_acc))
        << "dim " << dim;
    EXPECT_TRUE(SameBitsOrBothNan(table.Row(row), want_w)) << "dim " << dim;
    EXPECT_TRUE(SameFloats(table.RowGrad(row), std::vector<float>(dim, 0.0f)))
        << "dim " << dim;
  }
}

/// Table shapes whose rows fill more than three storage blocks: 256 rows
/// of dim 256 fit a block, and 512 of dim 100 (65536 / 100 is not a power
/// of two, so those blocks are not full).
struct BlockShape {
  size_t dim;
  uint64_t rows;
};
constexpr BlockShape kBlockShapes[] = {{256, 3 * 256 + 5}, {100, 3 * 512 + 5}};

// Deferred rows spread over several blocks, filled on a pool in two
// rounds, hold their keys' reference draws; a row's storage never moves as
// later rounds add blocks.
TEST(EmbeddingTableTest, BlockTablesDeferredInitMatchesReferenceDraws) {
  ThreadPool pool(4);
  for (const BlockShape& shape : kBlockShapes) {
    EmbeddingTable table(shape.dim, /*with_bias=*/true, 0.25f, 37);
    const float* first_row = nullptr;
    for (const auto& [lo, hi] : {std::pair{uint64_t{0}, shape.rows / 2},
                                 std::pair{shape.rows / 2, shape.rows}}) {
      for (uint64_t i = lo; i < hi; ++i) {
        ASSERT_EQ(table.GetOrCreateRowDeferred(7919 * i + 3), i);
      }
      table.InitPendingRows(&pool);
      if (lo == 0) first_row = table.Row(0).data();
    }
    ASSERT_EQ(table.num_rows(), shape.rows);
    EXPECT_EQ(table.Row(0).data(), first_row) << "dim " << shape.dim;
    for (uint32_t row = 0; row < shape.rows; ++row) {
      const std::vector<float> want =
          ReferenceRow(37, 7919 * row + 3, shape.dim, 0.25f);
      ASSERT_TRUE(SameFloats(table.Row(row), want))
          << "dim " << shape.dim << " row " << row;
      ASSERT_EQ(table.FindRow(7919 * row + 3), row);
    }
  }
}

TEST(EmbeddingTableTest, BlockTablesScatterGradMatchesAccumulateGrad) {
  ThreadPool pool(4);
  for (const BlockShape& shape : kBlockShapes) {
    EmbeddingTable serial(shape.dim, /*with_bias=*/false, 0.1f, 41);
    EmbeddingTable scattered(shape.dim, /*with_bias=*/false, 0.1f, 41);
    for (uint64_t key = 0; key < shape.rows; ++key) {
      serial.GetOrCreateRow(key);
      scattered.GetOrCreateRow(key);
    }
    Rng rng(43);
    Matrix grads(64, shape.dim);
    for (size_t i = 0; i < grads.size(); ++i) {
      grads.data()[i] = static_cast<float>(rng.Normal());
    }
    // Rows from every block, each hit by several items.
    std::vector<EmbeddingTable::SparseRef> refs;
    for (uint32_t item = 0; item < 64; ++item) {
      for (uint32_t f = 0; f < 24; ++f) {
        refs.push_back({item, uint32_t(rng.UniformInt(shape.rows / 3) * 3),
                        static_cast<float>(rng.Uniform(-2.0, 2.0))});
      }
    }
    std::vector<float> scaled(shape.dim);
    for (const EmbeddingTable::SparseRef& ref : refs) {
      for (size_t d = 0; d < shape.dim; ++d) {
        scaled[d] = ref.value * grads(ref.item, d);
      }
      serial.AccumulateGrad(ref.row, scaled);
    }
    scattered.ScatterGrad(refs, grads, &pool);
    EXPECT_EQ(scattered.touched_rows(), serial.touched_rows());
    for (uint32_t row = 0; row < shape.rows; ++row) {
      ASSERT_TRUE(SameFloats(scattered.RowGrad(row), serial.RowGrad(row)))
          << "dim " << shape.dim << " row " << row;
    }
  }
}

TEST(EmbeddingTableTest, BlockTablesPooledAdagradMatchesSerial) {
  ThreadPool pool(4);
  for (const BlockShape& shape : kBlockShapes) {
    EmbeddingTable serial(shape.dim, /*with_bias=*/true, 0.2f, 47);
    EmbeddingTable pooled(shape.dim, /*with_bias=*/true, 0.2f, 47);
    for (uint64_t key = 0; key < shape.rows; ++key) {
      serial.GetOrCreateRow(key);
      pooled.GetOrCreateRow(key);
    }
    Rng rng(53);
    std::vector<float> grad(shape.dim);
    for (uint32_t step = 0; step < 3; ++step) {
      for (uint32_t t = 0; t < shape.rows; t += 2) {
        const uint32_t row = (t * 7 + step * 11) % shape.rows;
        for (float& x : grad) x = static_cast<float>(rng.Normal(0.0, 0.1));
        serial.AccumulateGrad(row, grad, grad[0]);
        pooled.MarkTouched(row);
        pooled.AddGrad(row, grad, grad[0]);
      }
      EXPECT_EQ(pooled.touched_rows(), serial.touched_rows());
      serial.ApplyGradients(0.05f);
      pooled.ApplyGradients(0.05f, &pool);
    }
    for (uint32_t row = 0; row < shape.rows; ++row) {
      ASSERT_TRUE(SameFloats(pooled.Row(row), serial.Row(row)))
          << "dim " << shape.dim << " row " << row;
      ASSERT_TRUE(SameFloats(pooled.AdagradRow(row), serial.AdagradRow(row)))
          << "dim " << shape.dim << " row " << row;
      ASSERT_EQ(pooled.bias(row), serial.bias(row)) << row;
      ASSERT_EQ(pooled.adagrad_bias(row), serial.adagrad_bias(row)) << row;
    }
    EXPECT_EQ(pooled.TakeDirtyRows(), serial.TakeDirtyRows());
  }
}

// ---------- EmbeddingTable: the per-step gradient slab ----------

/// Pool sizes for the slab tests: one worker, and more workers than the
/// small tables have rows to split.
class GradSlabTest : public ::testing::TestWithParam<size_t> {};

/// Refs from `items` batch items into rows [first, first + count), each
/// row hit at least once.
std::vector<EmbeddingTable::SparseRef> RefsIntoRows(uint32_t first,
                                                    uint32_t count,
                                                    uint32_t items, Rng* rng) {
  std::vector<EmbeddingTable::SparseRef> refs;
  for (uint32_t i = 0; i < count; ++i) {
    refs.push_back({i % items, first + i,
                    static_cast<float>(rng->Uniform(-2.0, 2.0))});
  }
  for (uint32_t i = 0; i < 2 * count; ++i) {
    refs.push_back({uint32_t(rng->UniformInt(uint64_t{items})),
                    first + uint32_t(rng->UniformInt(uint64_t{count})),
                    static_cast<float>(rng->Uniform(-2.0, 2.0))});
  }
  return refs;
}

// Slots are reused from step to step: a row the last step touched and this
// one does not reads an all-zero gradient, though its old slot now holds
// another row's, and touched_rows() lists only this step's rows.
TEST_P(GradSlabTest, RowUntouchedThisStepReadsZero) {
  ThreadPool pool(GetParam());
  constexpr size_t kDim = 24;
  EmbeddingTable table(kDim, /*with_bias=*/true, 0.1f, 59);
  for (uint64_t key = 0; key < 30; ++key) table.GetOrCreateRow(key);
  Rng rng(61);
  Matrix grads(8, kDim);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads.data()[i] = static_cast<float>(rng.Normal());
  }
  const std::vector<float> zeros(kDim, 0.0f);
  // Step t: rows 0..9 through the scatter, 10..11 through AccumulateGrad
  // with a bias gradient.
  table.ScatterGrad(RefsIntoRows(0, 10, 8, &rng), grads, &pool);
  table.AccumulateGrad(10, {grads.Row(0), kDim}, 0.5f);
  table.AccumulateGrad(11, {grads.Row(1), kDim}, -0.25f);
  ASSERT_EQ(table.touched_rows().size(), 12u);
  EXPECT_NE(table.bias_grad(10), 0.0f);
  table.ApplyGradients(0.1f, &pool);
  EXPECT_TRUE(table.touched_rows().empty());
  for (uint32_t row = 0; row < 12; ++row) {
    EXPECT_TRUE(SameFloats(table.RowGrad(row), zeros)) << "row " << row;
    EXPECT_EQ(std::bit_cast<uint32_t>(table.bias_grad(row)), 0u) << row;
  }
  // Step t + 1: rows 20..25 take slots 0..5, which held rows 0..5.
  table.ScatterGrad(RefsIntoRows(20, 6, 8, &rng), grads, &pool);
  ASSERT_EQ(table.touched_rows().size(), 6u);
  for (uint32_t row : table.touched_rows()) {
    EXPECT_GE(row, 20u);
    EXPECT_LT(row, 26u);
  }
  for (uint32_t row = 0; row < 12; ++row) {
    EXPECT_TRUE(SameFloats(table.RowGrad(row), zeros)) << "row " << row;
    EXPECT_EQ(std::bit_cast<uint32_t>(table.bias_grad(row)), 0u) << row;
  }
  for (uint32_t row = 20; row < 26; ++row) {
    EXPECT_FALSE(SameFloats(table.RowGrad(row), zeros)) << "row " << row;
  }
  table.ApplyGradients(0.1f, &pool);
  for (uint32_t row = 20; row < 26; ++row) {
    EXPECT_TRUE(SameFloats(table.RowGrad(row), zeros)) << "row " << row;
  }
}

/// The table before the slab: every row owns a gradient array and a bias
/// gradient, zero while the row is untouched, and the same rounded adds
/// and AdaGrad formula (volatile keeps each product rounded on its own).
struct PerRowReference {
  explicit PerRowReference(const EmbeddingTable& table)
      : dim(table.dim()), with_bias(table.with_bias()) {
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      const std::span<const float> w = table.Row(row);
      weights.emplace_back(w.begin(), w.end());
      const std::span<const float> acc = table.AdagradRow(row);
      accums.emplace_back(acc.begin(), acc.end());
      grads.emplace_back(dim, 0.0f);
      biases.push_back(with_bias ? table.bias(row) : 0.0f);
      bias_accums.push_back(with_bias ? table.adagrad_bias(row) : 0.0f);
      bias_grads.push_back(0.0f);
      is_touched.push_back(false);
    }
  }
  void Touch(uint32_t row) {
    if (!is_touched[row]) {
      is_touched[row] = true;
      touched.push_back(row);
    }
  }
  void Add(uint32_t row, float v, const float* x, float bias_grad) {
    Touch(row);
    for (size_t d = 0; d < dim; ++d) {
      const volatile float product = v * x[d];
      grads[row][d] += product;
    }
    bias_grads[row] += bias_grad;
  }
  void Apply(float lr) {
    constexpr float kEps = 1e-8f;
    for (uint32_t row : touched) {
      for (size_t d = 0; d < dim; ++d) {
        const float g = grads[row][d];
        const volatile float square = g * g;
        accums[row][d] += square;
        const volatile float step = lr * g;
        weights[row][d] -= step / (std::sqrt(accums[row][d]) + kEps);
        grads[row][d] = 0.0f;
      }
      const float gb = bias_grads[row];
      const volatile float square = gb * gb;
      bias_accums[row] += square;
      const volatile float step = lr * gb;
      biases[row] -= step / (std::sqrt(bias_accums[row]) + kEps);
      bias_grads[row] = 0.0f;
      is_touched[row] = false;
    }
    touched.clear();
  }
  /// The table's pending gradients and, after Apply, its rows, bit for bit.
  void ExpectGradients(const EmbeddingTable& table,
                       const std::string& what) const {
    ASSERT_EQ(table.touched_rows(), touched) << what;
    for (uint32_t row = 0; row < grads.size(); ++row) {
      ASSERT_TRUE(SameFloats(table.RowGrad(row), grads[row]))
          << what << " row " << row;
      if (with_bias) {
        ASSERT_EQ(std::bit_cast<uint32_t>(table.bias_grad(row)),
                  std::bit_cast<uint32_t>(bias_grads[row]))
            << what << " bias of row " << row;
      }
    }
  }
  void ExpectRows(const EmbeddingTable& table, const std::string& what) const {
    for (uint32_t row = 0; row < weights.size(); ++row) {
      ASSERT_TRUE(SameFloats(table.Row(row), weights[row]))
          << what << " row " << row;
      ASSERT_TRUE(SameFloats(table.AdagradRow(row), accums[row]))
          << what << " row " << row;
      if (with_bias) {
        ASSERT_EQ(std::bit_cast<uint32_t>(table.bias(row)),
                  std::bit_cast<uint32_t>(biases[row]))
            << what << " row " << row;
        ASSERT_EQ(std::bit_cast<uint32_t>(table.adagrad_bias(row)),
                  std::bit_cast<uint32_t>(bias_accums[row]))
            << what << " row " << row;
      }
    }
  }

  size_t dim;
  bool with_bias;
  std::vector<std::vector<float>> weights, accums, grads;
  std::vector<float> biases, bias_accums, bias_grads;
  std::vector<uint32_t> touched;
  std::vector<bool> is_touched;
};

// Three steps whose touch sets change (rows join, leave and come back, the
// slab grows in the third), over two tables whose calls interleave, and
// every way a row is touched: TouchNewRows written like the field loop
// writes it, the scatter, MarkTouched + AddGrad and AccumulateGrad, each
// onto rows the others touched first. Pending gradients, weights and
// accumulators stay bitwise those of a table with a gradient per row.
TEST_P(GradSlabTest, StepsMatchPerRowGradientsBitwise) {
  Kernels();  // FTZ/DAZ on this thread before any reference arithmetic
  ThreadPool pool(GetParam());
  EmbeddingTable out(20, /*with_bias=*/true, 0.2f, 67);
  EmbeddingTable in(9, /*with_bias=*/false, 0.2f, 71);
  for (uint64_t key = 0; key < 40; ++key) {
    out.GetOrCreateRow(key);
    in.GetOrCreateRow(key);
  }
  PerRowReference out_ref(out), in_ref(in);
  Rng rng(73);
  constexpr float kLr = 0.05f;
  struct StepRows {
    uint32_t first_new, count_new;  // out: rows written through slots
    uint32_t first_in, count_in;    // in: rows hit by the scatter
  };
  for (const StepRows& step : {StepRows{0, 12, 0, 15}, StepRows{6, 10, 10, 8},
                               StepRows{3, 30, 2, 36}}) {
    const std::string what = "step from row " + std::to_string(step.first_new);
    Matrix grads(16, 20);
    for (size_t i = 0; i < grads.size(); ++i) {
      grads.data()[i] = static_cast<float>(rng.Normal(0.0, 0.5));
    }
    Matrix in_grads(16, 9);
    for (size_t i = 0; i < in_grads.size(); ++i) {
      in_grads.data()[i] = static_cast<float>(rng.Normal(0.0, 0.5));
    }
    // `in`, first touch: two rows by hand.
    const uint32_t lone = (step.first_in + step.count_in + 1) % 40;
    in.MarkTouched(lone);
    in.AddGrad(lone, {in_grads.Row(3), 9});
    in_ref.Add(lone, 1.0f, in_grads.Row(3), 0.0f);
    in.AccumulateGrad(step.first_in, {in_grads.Row(4), 9});
    in_ref.Add(step.first_in, 1.0f, in_grads.Row(4), 0.0f);
    // `out`: new rows, in a shuffled order, written through their slots.
    std::vector<uint32_t> rows(step.count_new);
    for (uint32_t i = 0; i < step.count_new; ++i) {
      rows[i] = (step.first_new + i * 7) % 40;
    }
    const EmbeddingTable::GradSlots slots = out.TouchNewRows(rows);
    for (uint32_t c = 0; c < rows.size(); ++c) {
      const float* g = grads.Row(c % 16);
      std::copy(g, g + 20, slots.grads + c * 20);
      slots.bias_grads[c] = g[0] * 3.0f;
      out_ref.Touch(rows[c]);
      std::copy(g, g + 20, out_ref.grads[rows[c]].begin());
      out_ref.bias_grads[rows[c]] = g[0] * 3.0f;
    }
    // `in`: the scatter, over rows old and new to this step.
    const std::vector<EmbeddingTable::SparseRef> refs =
        RefsIntoRows(step.first_in, step.count_in, 16, &rng);
    in.ScatterGrad(refs, in_grads, &pool);
    for (const EmbeddingTable::SparseRef& ref : refs) {
      in_ref.Add(ref.row, ref.value, in_grads.Row(ref.item), 0.0f);
    }
    // `out`: more onto written rows and onto fresh ones.
    for (uint32_t i = 0; i < 6; ++i) {
      const uint32_t row = (step.first_new + 5 * i) % 40;
      out.AccumulateGrad(row, {grads.Row(i), 20}, 0.125f * float(i));
      out_ref.Add(row, 1.0f, grads.Row(i), 0.125f * float(i));
    }
    std::vector<EmbeddingTable::SparseRef> out_refs;
    for (uint32_t i = 0; i < 20; ++i) {
      out_refs.push_back({i % 16, (step.first_new + 3 * i) % 40,
                          static_cast<float>(rng.Uniform(-1.0, 1.0))});
    }
    out.ScatterGrad(out_refs, grads, &pool);
    for (const EmbeddingTable::SparseRef& ref : out_refs) {
      out_ref.Add(ref.row, ref.value, grads.Row(ref.item), 0.0f);
    }
    out_ref.ExpectGradients(out, "out, " + what);
    in_ref.ExpectGradients(in, "in, " + what);

    in.ApplyGradients(kLr, &pool);
    out.ApplyGradients(kLr, &pool);
    in_ref.Apply(kLr);
    out_ref.Apply(kLr);
    out_ref.ExpectRows(out, "out, " + what);
    in_ref.ExpectRows(in, "in, " + what);
    EXPECT_TRUE(out.touched_rows().empty());
    EXPECT_TRUE(in.touched_rows().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, GradSlabTest, ::testing::Values(1, 4));

// ---------- Losses ----------

TEST(GaussianKlTest, ZeroAtPrior) {
  Matrix mu(3, 4);
  Matrix logvar(3, 4);
  EXPECT_NEAR(GaussianKl(mu, logvar), 0.0, 1e-9);
}

TEST(GaussianKlTest, PositiveAwayFromPrior) {
  Matrix mu(1, 2, 1.0f);
  Matrix logvar(1, 2, 0.0f);
  // KL = 0.5 * sum(mu^2) = 1.0 for two dims of mu=1.
  EXPECT_NEAR(GaussianKl(mu, logvar), 1.0, 1e-6);
}

TEST(GaussianKlTest, GradientsMatchNumerical) {
  Rng rng(20);
  Matrix mu = Matrix::Gaussian(2, 3, 1.0f, rng);
  Matrix logvar = Matrix::Gaussian(2, 3, 0.5f, rng);
  Matrix mu_grad(2, 3), logvar_grad(2, 3);
  // Unnormalized (weight 1): gradients of batch-sum KL... GaussianKlBackward
  // uses per-element formulas matching batch-mean times weight=batch.
  GaussianKlBackward(mu, logvar, 1.0f, &mu_grad, &logvar_grad);
  const float h = 1e-3f;
  for (size_t i = 0; i < mu.size(); ++i) {
    Matrix mp = mu, mm = mu;
    mp.data()[i] += h;
    mm.data()[i] -= h;
    // GaussianKl averages over rows; scale numeric diff by rows.
    const double numeric =
        (GaussianKl(mp, logvar) - GaussianKl(mm, logvar)) / (2.0 * h) *
        double(mu.rows());
    EXPECT_NEAR(mu_grad.data()[i], numeric, 2e-2);
  }
  for (size_t i = 0; i < logvar.size(); ++i) {
    Matrix lp = logvar, lm = logvar;
    lp.data()[i] += h;
    lm.data()[i] -= h;
    const double numeric =
        (GaussianKl(mu, lp) - GaussianKl(mu, lm)) / (2.0 * h) *
        double(mu.rows());
    EXPECT_NEAR(logvar_grad.data()[i], numeric, 2e-2);
  }
}

TEST(MultinomialNllTest, UniformLogitsGiveLogC) {
  const std::vector<float> logits(4, 0.0f);
  const std::vector<float> counts{1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_NEAR(MultinomialNll(logits, counts), std::log(4.0), 1e-6);
}

TEST(MultinomialNllTest, GradientIsSoftmaxMinusCounts) {
  const std::vector<float> logits{0.0f, 1.0f, -1.0f};
  const std::vector<float> counts{2.0f, 0.0f, 1.0f};  // N = 3
  std::vector<float> grad(3);
  MultinomialNll(logits, counts, grad);
  std::vector<float> probs = logits;
  SoftmaxInPlace(probs);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(grad[j], 3.0f * probs[j] - counts[j], 1e-5f);
  }
  // Gradient sums to zero (softmax mass = counts mass).
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0f, 1e-5f);
}

TEST(MultinomialNllTest, GradientMatchesNumerical) {
  std::vector<float> logits{0.3f, -0.7f, 1.2f, 0.0f};
  const std::vector<float> counts{1.0f, 2.0f, 0.0f, 3.0f};
  std::vector<float> grad(4);
  const double base = MultinomialNll(logits, counts, grad);
  EXPECT_GT(base, 0.0);
  const float h = 1e-3f;
  for (int j = 0; j < 4; ++j) {
    std::vector<float> lp = logits, lm = logits;
    lp[j] += h;
    lm[j] -= h;
    const double numeric =
        (MultinomialNll(lp, counts) - MultinomialNll(lm, counts)) / (2.0 * h);
    EXPECT_NEAR(grad[j], numeric, 1e-2);
  }
}

TEST(MultinomialNllTest, EmptyCandidatesIsZero) {
  EXPECT_EQ(MultinomialNll({}, {}), 0.0);
}

TEST(MultinomialNllTest, PerfectPredictionHasLowLoss) {
  // Logit strongly favors the observed feature.
  const std::vector<float> logits{20.0f, 0.0f, 0.0f};
  const std::vector<float> counts{1.0f, 0.0f, 0.0f};
  EXPECT_LT(MultinomialNll(logits, counts), 1e-6);
}

// The training step sums each row's loss over its touched positions only,
// listed in feature order with repeats. A skipped position has count 0 and
// a finite log-prob, so its term is an exact zero and the sparse sum is the
// dense one bit for bit: loss and gradient, with repeated and zero-valued
// features, and n below, at and past one 16-float vector and at a field's
// 2,400 candidates. A gradient scale is the unscaled gradient times the
// scale, each element rounded twice, as the training step's field weight.
TEST(MultinomialNllInPlaceTest, SparseLossIsBitwiseDense) {
  Rng rng(17);
  for (size_t n : {1, 15, 16, 17, 2400}) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> logits(n);
      for (float& v : logits) v = static_cast<float>(rng.Normal(0.0, 3.0));
      std::vector<float> counts(n, 0.0f);
      std::vector<uint32_t> touched;
      const size_t features = 1 + rng.UniformInt(12);
      for (size_t f = 0; f < features; ++f) {
        const uint32_t p = static_cast<uint32_t>(rng.UniformInt(n));
        // Every third feature is zero-valued: touched, with no count.
        counts[p] += f % 3 == 2 ? 0.0f : static_cast<float>(1 + f % 4);
        touched.push_back(p);
        if (f % 4 == 1) touched.push_back(p);  // a repeated feature
      }
      std::vector<float> sparse = logits, dense = logits, scaled = logits;
      const double sparse_loss =
          MultinomialNllInPlace(sparse, counts, touched, 1.0f);
      const double dense_loss = MultinomialNllInPlace(dense, counts, {}, 1.0f);
      constexpr float kScale = 0.37f / 512.0f;
      const double scaled_loss =
          MultinomialNllInPlace(scaled, counts, touched, kScale);
      std::vector<float> grad(n);
      const double public_loss = MultinomialNll(logits, counts, grad);
      EXPECT_EQ(std::memcmp(&sparse_loss, &dense_loss, sizeof(double)), 0)
          << "n=" << n << " rep=" << rep;
      EXPECT_EQ(std::memcmp(&public_loss, &dense_loss, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(sparse.data(), dense.data(), n * sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(grad.data(), dense.data(), n * sizeof(float)), 0);
      EXPECT_EQ(MultinomialNll(logits, counts), dense_loss);
      EXPECT_EQ(std::memcmp(&scaled_loss, &dense_loss, sizeof(double)), 0);
      for (float& g : dense) g *= kScale;
      EXPECT_EQ(std::memcmp(scaled.data(), dense.data(), n * sizeof(float)),
                0);
    }
  }
}

// An infinite or NaN logit at an untouched position still poisons the
// loss, exactly as the dense sum's 0 * inf does.
TEST(MultinomialNllInPlaceTest, NonFiniteLogitGivesNanLoss) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  for (size_t n : {2, 17, 2400}) {
    for (float special : {kInf, -kInf, kNan}) {
      std::vector<float> row(n, 0.5f);
      std::vector<float> counts(n, 0.0f);
      counts[0] = 2.0f;
      row[n - 1] = special;
      std::vector<uint32_t> touched = {0};
      EXPECT_TRUE(
          std::isnan(MultinomialNllInPlace(row, counts, touched, 1.0f)))
          << "n=" << n << " logit " << special;
    }
  }
}

}  // namespace
}  // namespace fvae::nn
