#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

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

/// The reference for Mlp::accumulate_gradients: the rows gathered, then
/// DenseLayer::forward_into and backward_into chained layer by layer.
void chained_train_step(const Mlp& mlp, const Matrix& x, const Matrix& y,
                        const std::vector<Index>& rows, Loss loss,
                        Real delta_scale, Mlp::GradientBuffers& out) {
  const Matrix xb = gather_rows(x, rows);
  const Matrix yb = gather_rows(y, rows);
  const Index n_layers = mlp.layer_count();
  std::vector<Matrix> inputs;
  std::vector<Matrix> preacts(static_cast<std::size_t>(n_layers));
  Matrix a = xb;
  for (Index l = 0; l < n_layers; ++l) {
    Matrix next = mlp.layer(l).forward_into(
        a, preacts[static_cast<std::size_t>(l)]);
    inputs.push_back(std::move(a));
    a = std::move(next);
  }
  out.loss_sum +=
      loss_value(a, yb, loss) * static_cast<Real>(a.rows() * a.cols());
  Matrix delta = loss_gradient(a, yb, loss);
  if (delta_scale != 1.0) {
    for (Real& d : delta.data()) {
      d *= delta_scale;
    }
  }
  for (Index l = n_layers; l-- > 0;) {
    const auto i = static_cast<std::size_t>(l);
    delta = mlp.layer(l).backward_into(delta, inputs[i], preacts[i],
                                       out.weight_grads[i],
                                       out.bias_grads[i]);
  }
}

bool all_finite(const Mlp::GradientBuffers& g) {
  const auto finite = [](const Matrix& m) {
    return std::all_of(m.data().begin(), m.data().end(),
                       [](Real v) { return std::isfinite(v); });
  };
  return std::isfinite(g.loss_sum) &&
         std::all_of(g.weight_grads.begin(), g.weight_grads.end(), finite) &&
         std::all_of(g.bias_grads.begin(), g.bias_grads.end(), finite);
}

/// Two chunks of `chunk_rows` random rows (repeats allowed) through both
/// paths into the same buffers, so the second chunk accumulates onto the
/// first's sums; then every dW, db and loss_sum must match bytewise.
/// Returns the reference's buffers.
Mlp::GradientBuffers expect_train_step_matches(const Mlp& mlp,
                                               const Matrix& x,
                                               const Matrix& y, Loss loss,
                                               Real delta_scale,
                                               Index chunk_rows, U64 seed) {
  SCOPED_TRACE(::testing::Message()
               << "loss " << to_string(loss) << ", delta_scale "
               << delta_scale << ", rows " << chunk_rows);
  Rng rng(seed);
  Mlp::GradientBuffers fused = mlp.make_gradient_buffers();
  Mlp::GradientBuffers reference = mlp.make_gradient_buffers();
  for (int chunk = 0; chunk < 2; ++chunk) {
    std::vector<Index> rows(static_cast<std::size_t>(chunk_rows));
    for (Index& r : rows) {
      r = rng.uniform_int(0, x.rows() - 1);
    }
    mlp.accumulate_gradients(x, y, rows, loss, delta_scale, fused);
    chained_train_step(mlp, x, y, rows, loss, delta_scale, reference);
  }
  for (std::size_t l = 0; l < reference.weight_grads.size(); ++l) {
    SCOPED_TRACE(::testing::Message() << "layer " << l);
    expect_bitwise_equal(fused.weight_grads[l], reference.weight_grads[l]);
    expect_bitwise_equal(fused.bias_grads[l], reference.bias_grads[l]);
  }
  EXPECT_EQ(std::memcmp(&fused.loss_sum, &reference.loss_sum, sizeof(Real)),
            0);
  return reference;
}

/// Every chunk size, delta scale and loss the suite covers.
void expect_train_steps_match(const Mlp& mlp, const Matrix& x,
                              const Matrix& y, U64 seed) {
  for (const Index chunk_rows : {1, 5, 16}) {
    for (const Real delta_scale : {1.0, 0.25}) {
      for (const Loss loss : {Loss::kMse, Loss::kMae, Loss::kHuber}) {
        expect_train_step_matches(mlp, x, y, loss, delta_scale, chunk_rows,
                                  seed++);
      }
    }
  }
}

Matrix normal_matrix(Index rows, Index cols, U64 seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (Real& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

constexpr Real kInf = std::numeric_limits<Real>::infinity();
constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

/// The 3→7→16→33→2 net with every activation set to `act` and random
/// biases (zero biases would hide a bias added out of order).
Mlp uneven_mlp(Activation act, U64 seed) {
  MlpConfig c;
  c.inputs = 3;
  c.outputs = 2;
  c.hidden = {7, 16, 33};
  c.hidden_activation = act;
  c.output_activation = act;
  Rng rng(seed);
  Mlp mlp(c, rng);
  for (Index l = 0; l < mlp.layer_count(); ++l) {
    for (Real& b : mlp.layer(l).bias().data()) {
      b = rng.normal();
    }
  }
  return mlp;
}

class MlpTrainStepBitwise : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpTrainStepBitwise, UnevenWidthsMatchChainedForwardBackward) {
  const Mlp mlp = uneven_mlp(GetParam(), 31);
  const Matrix x = signed_zero_rich_input(40, 3, 32);
  const Matrix y = normal_matrix(40, 2, 33);
  expect_train_steps_match(mlp, x, y, 34);
}

TEST_P(MlpTrainStepBitwise, ZeroInputColumnHidesNonFiniteWeights) {
  Mlp mlp = uneven_mlp(GetParam(), 41);
  Matrix x = signed_zero_rich_input(40, 3, 42);
  for (Index r = 0; r < x.rows(); ++r) {
    x(r, 1) = r % 2 == 0 ? 0.0 : -0.0;
  }
  const Matrix y = normal_matrix(40, 2, 43);
  // Row 1 of W₀ meets only the zero column, which the reference skips.
  Matrix& w = mlp.layer(0).weights();
  for (Index j = 0; j < w.cols(); ++j) {
    w(1, j) = j % 3 == 0 ? kInf : (j % 3 == 1 ? -kInf : kNaN);
  }
  EXPECT_TRUE(all_finite(expect_train_step_matches(mlp, x, y, Loss::kMse,
                                                   1.0, 16, 44)));
  expect_train_steps_match(mlp, x, y, 45);
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpTrainStepBitwise,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kLeakyRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

/// The paper's 3→16×10→1 ReLU net with hidden biases in [−1, 0.5], so many
/// activations and deltas are exactly zero.
Mlp paper_relu_mlp(U64 seed) {
  Rng rng(seed);
  Mlp mlp(MlpConfig::paper_default(3, 1, 10, 16), rng);
  for (Index l = 0; l + 1 < mlp.layer_count(); ++l) {
    for (Real& b : mlp.layer(l).bias().data()) {
      b = rng.uniform(-1.0, 0.5);
    }
  }
  return mlp;
}

TEST(MlpTrainStepBitwise, ReluHeavyPaperArchitecture) {
  const Mlp mlp = paper_relu_mlp(51);
  const Matrix x = signed_zero_rich_input(40, 3, 52);
  const Matrix y = normal_matrix(40, 1, 53);
  expect_train_steps_match(mlp, x, y, 54);

  Matrix preact;
  const Matrix h = mlp.layer(0).forward_into(x, preact);
  const auto zeros = std::count(h.data().begin(), h.data().end(), 0.0);
  EXPECT_GT(zeros, 0);
  EXPECT_LT(zeros, static_cast<std::ptrdiff_t>(h.data().size()));
}

TEST(MlpTrainStepBitwise, DeadReluUnitHidesNonFiniteWeights) {
  Mlp mlp = paper_relu_mlp(61);
  // Unit 5 of hidden layer 3: every incoming weight is −inf or NaN, so its
  // pre-activation is −inf or NaN on any row with a nonzero input and −1
  // otherwise. ReLU maps all three to 0, and σ' is 0 there, so its δ is
  // ±0 on every row and the reference skips its column of W in dx.
  constexpr Index kLayer = 3;
  constexpr Index kUnit = 5;
  DenseLayer& layer = mlp.layer(kLayer);
  for (Index i = 0; i < layer.in_features(); ++i) {
    layer.weights()(i, kUnit) = i % 2 == 0 ? -kInf : kNaN;
  }
  layer.bias()(0, kUnit) = -1.0;
  const Matrix x = signed_zero_rich_input(40, 3, 62);
  const Matrix y = normal_matrix(40, 1, 63);

  Matrix h = x;
  Matrix preact;
  for (Index l = 0; l <= kLayer; ++l) {
    h = mlp.layer(l).forward_into(h, preact);
  }
  for (Index r = 0; r < h.rows(); ++r) {
    ASSERT_EQ(h(r, kUnit), 0.0) << "row " << r;
  }
  EXPECT_TRUE(all_finite(expect_train_step_matches(mlp, x, y, Loss::kMse,
                                                   1.0, 16, 64)));
  expect_train_steps_match(mlp, x, y, 65);
}

TEST(Mlp, AccumulateGradientsRejectsBadRows) {
  Rng rng(71);
  const Mlp mlp(MlpConfig::paper_default(3, 1, 2, 4), rng);
  const Matrix x(4, 3);
  const Matrix y(4, 1);
  Mlp::GradientBuffers g = mlp.make_gradient_buffers();
  const std::vector<Index> out_of_range = {0, 4};
  EXPECT_THROW(mlp.accumulate_gradients(x, y, out_of_range, Loss::kMse, 1.0, g),
               ContractViolation);
  EXPECT_THROW(mlp.accumulate_gradients(x, y, {}, Loss::kMse, 1.0, g),
               ContractViolation);
  const Matrix wide_y(4, 2);
  const std::vector<Index> first = {0};
  EXPECT_THROW(mlp.accumulate_gradients(x, wide_y, first, Loss::kMse, 1.0, g),
               ContractViolation);
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
