#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nn/trainer.hpp"

namespace ppdl::nn {
namespace {

/// y = 2x₀ − x₁ + 0.5, with mild noise.
void make_linear_data(Index rows, Matrix& x, Matrix& y, U64 seed) {
  Rng rng(seed);
  x = Matrix(rows, 2);
  y = Matrix(rows, 1);
  for (Index r = 0; r < rows; ++r) {
    const Real a = rng.uniform(-1.0, 1.0);
    const Real b = rng.uniform(-1.0, 1.0);
    x(r, 0) = a;
    x(r, 1) = b;
    y(r, 0) = 2.0 * a - b + 0.5 + 0.01 * rng.normal();
  }
}

TrainOptions fast_options() {
  TrainOptions o;
  o.epochs = 40;
  o.batch_size = 32;
  o.learning_rate = 5e-3;
  o.validation_fraction = 0.2;
  o.early_stopping_patience = 0;
  return o;
}

TEST(Trainer, LearnsLinearFunction) {
  Matrix x;
  Matrix y;
  make_linear_data(400, x, y, 1);
  Rng rng(2);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {16, 16};
  Mlp mlp(c, rng);
  const TrainHistory h = train(mlp, x, y, fast_options());
  EXPECT_LT(h.train_loss.back(), 0.01);
  EXPECT_LT(h.val_loss.back(), 0.02);
}

TEST(Trainer, LossDecreasesOverTraining) {
  Matrix x;
  Matrix y;
  make_linear_data(300, x, y, 3);
  Rng rng(4);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {8};
  Mlp mlp(c, rng);
  const TrainHistory h = train(mlp, x, y, fast_options());
  EXPECT_LT(h.train_loss.back(), 0.5 * h.train_loss.front());
}

TEST(Trainer, DeterministicForSeeds) {
  Matrix x;
  Matrix y;
  make_linear_data(200, x, y, 5);
  const auto run = [&] {
    Rng rng(6);
    MlpConfig c;
    c.inputs = 2;
    c.hidden = {8};
    Mlp mlp(c, rng);
    TrainOptions o = fast_options();
    o.epochs = 5;
    return train(mlp, x, y, o).train_loss.back();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Trainer, EarlyStoppingTriggers) {
  Matrix x;
  Matrix y;
  make_linear_data(200, x, y, 7);
  Rng rng(8);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {32, 32};
  Mlp mlp(c, rng);
  TrainOptions o = fast_options();
  o.epochs = 500;
  o.early_stopping_patience = 3;
  const TrainHistory h = train(mlp, x, y, o);
  EXPECT_TRUE(h.early_stopped);
  EXPECT_LT(h.epochs_run, 500);
  EXPECT_GE(h.best_val_loss, 0.0);
}

TEST(Trainer, NoValidationWhenFractionZero) {
  Matrix x;
  Matrix y;
  make_linear_data(100, x, y, 9);
  Rng rng(10);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {4};
  Mlp mlp(c, rng);
  TrainOptions o = fast_options();
  o.validation_fraction = 0.0;
  o.epochs = 3;
  const TrainHistory h = train(mlp, x, y, o);
  for (const Real v : h.val_loss) {
    EXPECT_DOUBLE_EQ(v, -1.0);
  }
  EXPECT_FALSE(h.early_stopped);
}

TEST(Trainer, EpochCallbackFires) {
  Matrix x;
  Matrix y;
  make_linear_data(60, x, y, 11);
  Rng rng(12);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {4};
  Mlp mlp(c, rng);
  TrainOptions o = fast_options();
  o.epochs = 4;
  Index calls = 0;
  o.on_epoch = [&](Index epoch, Real train_loss, Real val_loss) {
    ++calls;
    EXPECT_GT(epoch, 0);
    EXPECT_GE(train_loss, 0.0);
    EXPECT_GE(val_loss, 0.0);
  };
  train(mlp, x, y, o);
  EXPECT_EQ(calls, 4);
}

TEST(Trainer, RejectsBadInputs) {
  Rng rng(13);
  MlpConfig c;
  c.inputs = 2;
  c.hidden = {4};
  Mlp mlp(c, rng);
  Matrix x(10, 2);
  Matrix y_bad_rows(9, 1);
  EXPECT_THROW(train(mlp, x, y_bad_rows, fast_options()), ContractViolation);
  Matrix y(10, 1);
  TrainOptions o = fast_options();
  o.epochs = 0;
  EXPECT_THROW(train(mlp, x, y, o), ContractViolation);
  TrainOptions o2 = fast_options();
  o2.validation_fraction = 1.0;
  EXPECT_THROW(train(mlp, x, y, o2), ContractViolation);
}

TEST(Trainer, GatherRows) {
  Matrix m(4, 2);
  for (Index r = 0; r < 4; ++r) {
    m(r, 0) = static_cast<Real>(r);
    m(r, 1) = static_cast<Real>(10 * r);
  }
  const Matrix g = gather_rows(m, {3, 0});
  EXPECT_DOUBLE_EQ(g(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 0.0);

  EXPECT_THROW(gather_rows(m, {5}), ContractViolation);
}

TEST(Trainer, MultiTargetRegression) {
  // Two simultaneous targets: y0 = x0 + x1, y1 = x0 − x1.
  Rng data_rng(14);
  Matrix x(300, 2);
  Matrix y(300, 2);
  for (Index r = 0; r < 300; ++r) {
    const Real a = data_rng.uniform(-1.0, 1.0);
    const Real b = data_rng.uniform(-1.0, 1.0);
    x(r, 0) = a;
    x(r, 1) = b;
    y(r, 0) = a + b;
    y(r, 1) = a - b;
  }
  Rng rng(15);
  MlpConfig c;
  c.inputs = 2;
  c.outputs = 2;
  c.hidden = {16};
  Mlp mlp(c, rng);
  const TrainHistory h = train(mlp, x, y, fast_options());
  EXPECT_LT(h.train_loss.back(), 0.02);
}

}  // namespace
}  // namespace ppdl::nn
