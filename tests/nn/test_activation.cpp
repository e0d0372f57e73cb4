#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "nn/activation.hpp"

namespace ppdl::nn {
namespace {

class ActivationNumerics : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationNumerics, DerivativeMatchesFiniteDifference) {
  const Activation a = GetParam();
  const Real xs[] = {-2.0, -0.5, 0.3, 1.7};
  const Real h = 1e-6;
  for (const Real x : xs) {
    const Real numeric =
        (activate(x + h, a) - activate(x - h, a)) / (2.0 * h);
    EXPECT_NEAR(activate_grad(x, a), numeric, 1e-5)
        << to_string(a) << " at x=" << x;
  }
}

TEST_P(ActivationNumerics, RoundTripsThroughNames) {
  const Activation a = GetParam();
  EXPECT_EQ(parse_activation(to_string(a)), a);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationNumerics,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kLeakyRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(Activation, ReluClampsNegatives) {
  EXPECT_DOUBLE_EQ(activate(-3.0, Activation::kRelu), 0.0);
  EXPECT_DOUBLE_EQ(activate(3.0, Activation::kRelu), 3.0);
}

TEST(Activation, LeakyReluKeepsSmallSlope) {
  EXPECT_DOUBLE_EQ(activate(-2.0, Activation::kLeakyRelu), -0.02);
  EXPECT_DOUBLE_EQ(activate_grad(-2.0, Activation::kLeakyRelu), 0.01);
}

TEST(Activation, SigmoidRangeAndCenter) {
  EXPECT_DOUBLE_EQ(activate(0.0, Activation::kSigmoid), 0.5);
  EXPECT_LT(activate(-10.0, Activation::kSigmoid), 0.01);
  EXPECT_GT(activate(10.0, Activation::kSigmoid), 0.99);
}

TEST(Activation, TanhIsOdd) {
  EXPECT_NEAR(activate(1.3, Activation::kTanh),
              -activate(-1.3, Activation::kTanh), 1e-12);
}

TEST(Activation, ApplyTransformsWholeMatrix) {
  Matrix m(2, 2);
  m(0, 0) = -1.0;
  m(0, 1) = 2.0;
  m(1, 0) = -3.0;
  m(1, 1) = 0.0;
  apply_activation(m.data(), Activation::kRelu);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(Activation, GradientMatrixShape) {
  Matrix z(3, 4, 0.5);
  const Matrix g = activation_gradient(z, Activation::kSigmoid);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
}

TEST(Activation, UnknownNameThrows) {
  EXPECT_THROW(parse_activation("softmax"), ContractViolation);
}

}  // namespace
}  // namespace ppdl::nn
