#include <gtest/gtest.h>

#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace ppdl::nn {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Real& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

TEST(Layer, ShapesAndInit) {
  Rng rng(1);
  DenseLayer layer(3, 5, Activation::kRelu, rng);
  EXPECT_EQ(layer.in_features(), 3);
  EXPECT_EQ(layer.out_features(), 5);
  EXPECT_EQ(layer.parameter_count(), 3 * 5 + 5);
  // Bias starts at zero; weights are not all zero.
  for (const Real b : layer.bias().data()) {
    EXPECT_DOUBLE_EQ(b, 0.0);
  }
  Real wsum = 0.0;
  for (const Real w : layer.weights().data()) {
    wsum += std::abs(w);
  }
  EXPECT_GT(wsum, 0.0);
}

TEST(Layer, ForwardComputesAffinePlusActivation) {
  Rng rng(2);
  DenseLayer layer(2, 1, Activation::kIdentity, rng);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(1, 0) = -1.0;
  layer.bias()(0, 0) = 0.5;
  Matrix x(1, 2);
  x(0, 0) = 3.0;
  x(0, 1) = 4.0;
  const Matrix y = layer.forward(x, false);
  EXPECT_DOUBLE_EQ(y(0, 0), 2.0 * 3.0 - 4.0 + 0.5);
}

TEST(Layer, ForwardIntoMatchesForward) {
  Rng rng(3);
  DenseLayer layer(4, 3, Activation::kTanh, rng);
  const Matrix x = random_matrix(5, 4, rng);
  DenseLayer copy = layer;
  const Matrix a = copy.forward(x, false);
  Matrix preact;
  const Matrix b = layer.forward_into(x, preact);
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), b(r, c));
    }
  }
}

TEST(Layer, BackwardIntoInputGradientIsDeltaTimesWeightsTransposed) {
  Rng rng(6);
  DenseLayer layer(5, 7, Activation::kRelu, rng);
  // Enough rows for several row-parallel chunks (about 1,900 rows each).
  const Matrix x = random_matrix(4000, 5, rng);
  const Matrix grad_out = random_matrix(4000, 7, rng);
  Matrix preact;
  layer.forward_into(x, preact);
  Matrix grad_w(5, 7);
  Matrix grad_b(1, 7);
  const Matrix dx = layer.backward_into(grad_out, x, preact, grad_w, grad_b);

  // ReLU zeros in δ exercise the zero-skip both products share.
  Matrix delta = activation_gradient(preact, Activation::kRelu);
  for (std::size_t i = 0; i < delta.data().size(); ++i) {
    delta.data()[i] *= grad_out.data()[i];
  }
  const Matrix expected = delta.multiply(layer.weights().transposed());
  ASSERT_EQ(dx.rows(), expected.rows());
  ASSERT_EQ(dx.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(dx.data().data(), expected.data().data(),
                        dx.data().size_bytes()),
            0);
}

TEST(Layer, BackwardRequiresForwardCache) {
  Rng rng(4);
  DenseLayer layer(2, 2, Activation::kRelu, rng);
  Matrix grad(1, 2, 1.0);
  EXPECT_THROW(layer.backward(grad), ContractViolation);
  const Matrix x = random_matrix(1, 2, rng);
  layer.forward(x, true);
  EXPECT_NO_THROW(layer.backward(grad));
  // Cache consumed: a second backward must throw.
  EXPECT_THROW(layer.backward(grad), ContractViolation);
}

/// Full gradient check through a single layer + MSE loss.
class LayerGradient : public ::testing::TestWithParam<Activation> {};

TEST_P(LayerGradient, WeightsBiasAndInputGradientsMatchFiniteDifference) {
  const Activation act = GetParam();
  Rng rng(7);
  DenseLayer layer(3, 2, act, rng);
  const Matrix x = random_matrix(4, 3, rng);
  const Matrix target = random_matrix(4, 2, rng);

  const auto loss_of = [&](DenseLayer& l, const Matrix& input) {
    DenseLayer probe = l;
    const Matrix pred = probe.forward(input, false);
    return loss_value(pred, target, Loss::kMse);
  };

  // Analytical gradients.
  const Matrix pred = layer.forward(x, true);
  const Matrix dloss = loss_gradient(pred, target, Loss::kMse);
  const Matrix dx = layer.backward(dloss);

  const Real h = 1e-6;
  // Weight gradients.
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 2; ++j) {
      DenseLayer plus = layer;
      DenseLayer minus = layer;
      plus.weights()(i, j) += h;
      minus.weights()(i, j) -= h;
      const Real numeric = (loss_of(plus, x) - loss_of(minus, x)) / (2 * h);
      EXPECT_NEAR(layer.weight_grad()(i, j), numeric, 1e-4)
          << "dW(" << i << "," << j << ") " << to_string(act);
    }
  }
  // Bias gradients.
  for (Index j = 0; j < 2; ++j) {
    DenseLayer plus = layer;
    DenseLayer minus = layer;
    plus.bias()(0, j) += h;
    minus.bias()(0, j) -= h;
    const Real numeric = (loss_of(plus, x) - loss_of(minus, x)) / (2 * h);
    EXPECT_NEAR(layer.bias_grad()(0, j), numeric, 1e-4)
        << "db(" << j << ") " << to_string(act);
  }
  // Input gradients.
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 3; ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(r, c) += h;
      minus(r, c) -= h;
      const Real numeric =
          (loss_of(layer, plus) - loss_of(layer, minus)) / (2 * h);
      EXPECT_NEAR(dx(r, c), numeric, 1e-4)
          << "dx(" << r << "," << c << ") " << to_string(act);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, LayerGradient,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kLeakyRelu),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(Layer, ShapeMismatchThrows) {
  Rng rng(5);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  const Matrix bad(1, 4);
  EXPECT_THROW(layer.forward(bad, false), ContractViolation);
}

}  // namespace
}  // namespace ppdl::nn
