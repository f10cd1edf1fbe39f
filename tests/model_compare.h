#ifndef FVAE_TESTS_MODEL_COMPARE_H_
#define FVAE_TESTS_MODEL_COMPARE_H_

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/fvae_model.h"
#include "math/matrix.h"
#include "nn/embedding.h"

namespace fvae::model_compare {

inline bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Two tables equal row for row, bit for bit: keys, weights, biases and
/// AdaGrad accumulators, plus the dirty-row order the distributed
/// trainer's delta sync reads (both tables' dirty lists are taken).
inline void ExpectSameTable(nn::EmbeddingTable& a, nn::EmbeddingTable& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  const size_t bytes = a.dim() * sizeof(float);
  for (uint32_t row = 0; row < a.num_rows(); ++row) {
    EXPECT_EQ(a.KeyOfRow(row), b.KeyOfRow(row)) << what << " row " << row;
    EXPECT_EQ(std::memcmp(a.Row(row).data(), b.Row(row).data(), bytes), 0)
        << what << " weights of row " << row;
    EXPECT_EQ(std::memcmp(a.AdagradRow(row).data(), b.AdagradRow(row).data(),
                          bytes),
              0)
        << what << " accumulators of row " << row;
    if (a.with_bias()) {
      EXPECT_EQ(a.bias(row), b.bias(row)) << what << " bias of row " << row;
      EXPECT_EQ(a.adagrad_bias(row), b.adagrad_bias(row))
          << what << " bias accumulator of row " << row;
    }
  }
  EXPECT_EQ(a.TakeDirtyRows(), b.TakeDirtyRows()) << what;
}

/// Two models equal bit for bit: every dense parameter, and every input
/// and output table as ExpectSameTable checks it.
inline void ExpectSameModel(core::FieldVae& a, core::FieldVae& b) {
  const auto a_params = a.DenseParams();
  const auto b_params = b.DenseParams();
  ASSERT_EQ(a_params.size(), b_params.size());
  for (size_t i = 0; i < a_params.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(*a_params[i], *b_params[i]))
        << "dense param " << i;
  }
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (size_t k = 0; k < a.num_fields(); ++k) {
    ExpectSameTable(a.input_table(k), b.input_table(k),
                    "input table " + std::to_string(k));
    ExpectSameTable(a.output_table(k), b.output_table(k),
                    "output table " + std::to_string(k));
  }
}

}  // namespace fvae::model_compare

#endif  // FVAE_TESTS_MODEL_COMPARE_H_
