#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace ppdl::nn {
namespace {

/// Exact equality of shape and every byte: ±0 and NaN payloads count.
void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  if (!a.data().empty()) {
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size_bytes()),
              0);
  }
}

TEST(MlpConfig, PaperDefaultHasTenHiddenLayers) {
  const MlpConfig c = MlpConfig::paper_default();
  EXPECT_EQ(c.inputs, 3);
  EXPECT_EQ(c.outputs, 1);
  EXPECT_EQ(c.hidden.size(), 10u);
  EXPECT_EQ(c.hidden_activation, Activation::kRelu);
  EXPECT_EQ(c.output_activation, Activation::kIdentity);
}

TEST(Mlp, LayerCountIsHiddenPlusOne) {
  Rng rng(1);
  const Mlp mlp(MlpConfig::paper_default(3, 1, 10, 8), rng);
  EXPECT_EQ(mlp.layer_count(), 11);
}

TEST(Mlp, ParameterCountMatchesArchitecture) {
  Rng rng(1);
  MlpConfig c;
  c.inputs = 3;
  c.outputs = 2;
  c.hidden = {4, 5};
  const Mlp mlp(c, rng);
  // (3·4+4) + (4·5+5) + (5·2+2) = 16 + 25 + 12
  EXPECT_EQ(mlp.parameter_count(), 53);
}

TEST(Mlp, ForwardShape) {
  Rng rng(2);
  MlpConfig c;
  c.inputs = 4;
  c.outputs = 2;
  c.hidden = {6};
  Mlp mlp(c, rng);
  Matrix x(7, 4, 0.1);
  const Matrix y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Mlp, PredictConstMatchesForward) {
  Rng rng(3);
  MlpConfig c;
  c.hidden = {8, 8};
  Mlp mlp(c, rng);
  Matrix x(5, 3);
  Rng data_rng(4);
  for (Real& v : x.data()) {
    v = data_rng.normal();
  }
  const Matrix a = mlp.forward(x, false);
  const Mlp& view = mlp;
  expect_bitwise_equal(a, view.predict(x));
}

/// The reference for Mlp::predict: DenseLayer::forward_into chained layer
/// by layer.
Matrix chained_forward_into(const Mlp& mlp, const Matrix& x) {
  Matrix h = x;
  Matrix preact;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    h = mlp.layer(l).forward_into(h, preact);
  }
  return h;
}

/// Standard-normal rows with exact +0.0 and −0.0 entries mixed in.
Matrix signed_zero_rich_input(Index rows, Index cols, U64 seed) {
  Matrix x(rows, cols);
  Rng rng(seed);
  for (Real& v : x.data()) {
    const Real u = rng.uniform(0.0, 1.0);
    v = u < 0.1 ? 0.0 : (u < 0.2 ? -0.0 : rng.normal());
  }
  return x;
}

const Index kRowCounts[] = {0, 1, 63, 64, 65, 1000};

class MlpPredictBitwise : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpPredictBitwise, UnevenWidthsMatchChainedForwardInto) {
  MlpConfig c;
  c.inputs = 3;
  c.outputs = 2;
  c.hidden = {7, 16, 33};
  c.hidden_activation = GetParam();
  c.output_activation = GetParam();
  Rng rng(21);
  Mlp mlp(c, rng);
  // Biases start at zero, which would hide a bias added out of order.
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    for (Real& b : mlp.layer(l).bias().data()) {
      b = rng.normal();
    }
  }
  for (const Index n : kRowCounts) {
    SCOPED_TRACE(n);
    const Matrix x = signed_zero_rich_input(n, c.inputs, 22);
    expect_bitwise_equal(chained_forward_into(mlp, x), mlp.predict(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpPredictBitwise,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kLeakyRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(MlpPredictBitwise, ReluHeavyPaperArchitecture) {
  Rng rng(23);
  Mlp mlp(MlpConfig::paper_default(3, 1, 10, 16), rng);
  // Negative hidden biases push most pre-activations below zero, so most
  // hidden activations are exactly 0.
  for (Index l = 0; l + 1 < mlp.layer_count(); ++l) {
    for (Real& b : mlp.layer(l).bias().data()) {
      b = -1.0;
    }
  }
  for (const Index n : kRowCounts) {
    SCOPED_TRACE(n);
    const Matrix x = signed_zero_rich_input(n, 3, 24);
    expect_bitwise_equal(chained_forward_into(mlp, x), mlp.predict(x));
  }

  const Matrix x = signed_zero_rich_input(1000, 3, 24);
  Matrix preact;
  const Matrix h = mlp.layer(0).forward_into(x, preact);
  const auto zeros = std::count(h.data().begin(), h.data().end(), 0.0);
  EXPECT_GT(2 * zeros, static_cast<std::ptrdiff_t>(h.data().size()));
}

TEST(Mlp, DeterministicInitForSeed) {
  Rng rng1(9);
  Rng rng2(9);
  const Mlp a(MlpConfig::paper_default(3, 1, 2, 4), rng1);
  const Mlp b(MlpConfig::paper_default(3, 1, 2, 4), rng2);
  for (Index l = 0; l < a.layer_count(); ++l) {
    const auto wa = a.layer(l).weights().data();
    const auto wb = b.layer(l).weights().data();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_DOUBLE_EQ(wa[i], wb[i]);
    }
  }
}

TEST(Mlp, FullBackpropGradientCheck) {
  Rng rng(11);
  MlpConfig c;
  c.inputs = 2;
  c.outputs = 1;
  c.hidden = {3, 3};
  c.hidden_activation = Activation::kTanh;  // smooth for finite differences
  Mlp mlp(c, rng);

  Matrix x(5, 2);
  Matrix target(5, 1);
  Rng data_rng(12);
  for (Real& v : x.data()) {
    v = data_rng.normal();
  }
  for (Real& v : target.data()) {
    v = data_rng.normal();
  }

  const Matrix pred = mlp.forward(x, true);
  mlp.backward(loss_gradient(pred, target, Loss::kMse));

  const auto loss_of = [&](Mlp& m) {
    return loss_value(m.predict(x), target, Loss::kMse);
  };

  const Real h = 1e-6;
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    const Matrix& grad = mlp.layer(l).weight_grad();
    for (Index i = 0; i < grad.rows(); ++i) {
      for (Index j = 0; j < grad.cols(); ++j) {
        Mlp plus = mlp;
        Mlp minus = mlp;
        plus.layer(l).weights()(i, j) += h;
        minus.layer(l).weights()(i, j) -= h;
        const Real numeric = (loss_of(plus) - loss_of(minus)) / (2 * h);
        EXPECT_NEAR(grad(i, j), numeric, 1e-4)
            << "layer " << l << " W(" << i << "," << j << ")";
      }
    }
  }
}

TEST(Mlp, InputSizeMismatchThrows) {
  Rng rng(13);
  Mlp mlp(MlpConfig::paper_default(3, 1, 1, 4), rng);
  const Matrix bad(2, 5);
  EXPECT_THROW(mlp.forward(bad), ContractViolation);
  EXPECT_THROW(mlp.predict(bad), ContractViolation);
}

TEST(Mlp, InvalidConfigThrows) {
  Rng rng(14);
  MlpConfig c;
  c.inputs = 0;
  EXPECT_THROW(Mlp(c, rng), ContractViolation);
  MlpConfig c2;
  c2.hidden = {0};
  EXPECT_THROW(Mlp(c2, rng), ContractViolation);
}

TEST(Mlp, ParameterSlotsCoverAllParameters) {
  Rng rng(15);
  Mlp mlp(MlpConfig::paper_default(3, 1, 2, 4), rng);
  const auto slots = mlp.parameter_slots();
  Index total = 0;
  for (const ParamSlot& slot : slots) {
    total += static_cast<Index>(slot.value.size());
    EXPECT_EQ(slot.value.size(), slot.grad.size());
  }
  EXPECT_EQ(total, mlp.parameter_count());
}

}  // namespace
}  // namespace ppdl::nn
