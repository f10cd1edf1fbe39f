#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "math/special.h"

namespace fvae {
namespace {

// Euler-Mascheroni constant: psi(1) = -gamma.
constexpr double kEulerGamma = 0.5772156649015329;

TEST(DigammaTest, KnownValues) {
  EXPECT_NEAR(Digamma(1.0), -kEulerGamma, 1e-9);
  // psi(2) = 1 - gamma.
  EXPECT_NEAR(Digamma(2.0), 1.0 - kEulerGamma, 1e-9);
  // psi(0.5) = -gamma - 2 ln 2.
  EXPECT_NEAR(Digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-9);
}

TEST(DigammaTest, RecurrenceHolds) {
  // psi(x + 1) = psi(x) + 1/x across a range of x.
  for (double x : {0.1, 0.7, 1.3, 5.5, 42.0, 1000.0}) {
    EXPECT_NEAR(Digamma(x + 1.0), Digamma(x) + 1.0 / x, 1e-9) << "x=" << x;
  }
}

TEST(DigammaTest, MonotoneIncreasing) {
  double prev = Digamma(0.05);
  for (double x = 0.1; x < 20.0; x += 0.37) {
    const double cur = Digamma(x);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(DigammaTest, AsymptoticallyLogX) {
  EXPECT_NEAR(Digamma(1e6), std::log(1e6), 1e-5);
}

TEST(LogGammaTest, FactorialValues) {
  // lgamma(n + 1) = log(n!).
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-9);
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);
}

TEST(ExpDigammaTest, MatchesExpOfDigamma) {
  for (double x : {0.3, 1.0, 7.7}) {
    EXPECT_NEAR(ExpDigamma(x), std::exp(Digamma(x)), 1e-9);
  }
}

// Every u1 normal_fill can draw, ((h >> 8) + 1) / 2^24 for all 2^24 values
// of h >> 8: the log twin is finite and never positive, so the radius
// sqrt(-2 ln u1) is a real number no larger than sqrt(-2 ln 2^-24).
TEST(LogApproxTest, EveryUniformGivesARealRadius) {
  const double max_radius = std::sqrt(-2.0 * std::log(0x1p-24));
  double max_rel_err = 0.0;
  for (uint32_t k = 0; k < (uint32_t{1} << 24); ++k) {
    const float u1 = static_cast<float>(k + 1) * 0x1p-24f;
    const float log_u1 = LogApprox(u1);
    ASSERT_TRUE(std::isfinite(log_u1) && log_u1 <= 0.0f) << "u1 " << u1;
    ASSERT_LE(std::sqrt(log_u1 * -2.0f), max_radius) << "u1 " << u1;
    if (k + 1 < (uint32_t{1} << 24)) {
      const double exact = std::log(static_cast<double>(u1));
      max_rel_err = std::max(max_rel_err, std::fabs(log_u1 - exact) / -exact);
    }
  }
  EXPECT_LT(max_rel_err, 2e-7);
  EXPECT_EQ(LogApprox(1.0f), 0.0f);
}

TEST(LogApproxTest, MatchesLibmAcrossExponents) {
  for (float x : {1e-30f, 0.001f, 0.5f, 0.70710677f, 0.70710683f, 1.5f,
                  2.0f, 10.0f, 1e30f}) {
    EXPECT_NEAR(LogApprox(x), std::log(x), 3e-7 * std::fabs(std::log(x)) +
                                                1e-7)
        << "x " << x;
  }
}

// Over turns spread across the circle and its quadrant edges, the sincos
// twin is within 2e-7 of libm and never leaves [-1, 1].
TEST(SinCosTurnApproxTest, MatchesLibmAndStaysInRange) {
  std::vector<uint32_t> turns = {0,           1,           (1u << 21) - 1,
                                 1u << 21,    (1u << 22) - 1, 1u << 22,
                                 3u << 22,    (1u << 24) - 1};
  for (uint32_t t = 0; t < (uint32_t{1} << 24); t += 997) turns.push_back(t);
  for (uint32_t turn : turns) {
    float s = 0.0f, c = 0.0f;
    SinCosTurnApprox(turn, &s, &c);
    const double theta = 2.0 * std::numbers::pi * turn / 0x1p24;
    EXPECT_NEAR(s, std::sin(theta), 2e-7) << "turn " << turn;
    EXPECT_NEAR(c, std::cos(theta), 2e-7) << "turn " << turn;
    EXPECT_LE(std::fabs(s), 1.0f);
    EXPECT_LE(std::fabs(c), 1.0f);
  }
}

}  // namespace
}  // namespace fvae
