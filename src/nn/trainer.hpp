// Mini-batch training loop with validation split and early stopping.
#pragma once

#include <functional>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"

namespace ppdl::nn {

struct TrainOptions {
  Index epochs = 100;
  Index batch_size = 64;
  Real learning_rate = 1e-3;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  Loss loss = Loss::kMse;
  /// Fraction of rows held out for validation (0 disables validation).
  Real validation_fraction = 0.1;
  /// Stop after this many epochs without validation improvement
  /// (0 disables early stopping; requires validation_fraction > 0).
  Index early_stopping_patience = 10;
  U64 shuffle_seed = 1;
  /// Called after each epoch: (epoch, train loss, validation loss or -1).
  std::function<void(Index, Real, Real)> on_epoch;

  // --- divergence guards (see DESIGN.md "Failure policy") ----------------
  /// Clip the global gradient L2 norm to this value before each optimizer
  /// step (0 disables clipping — the default, preserving historical runs).
  Real gradient_clip_norm = 0.0;
  /// On a non-finite train/validation loss, roll the parameters back to
  /// the last finite epoch, restart the optimizer at a backed-off learning
  /// rate, and keep going. When false — or once max_recoveries rollbacks
  /// are spent — training stops and the history is marked `diverged`.
  bool recover_on_divergence = true;
  Real lr_backoff_factor = 0.5;
  Index max_recoveries = 3;
  /// After the loop, restore the parameters of the best-validation epoch
  /// instead of keeping the final-epoch weights. Off by default (final
  /// weights are the historical behavior).
  bool restore_best_params = false;

  // --- graceful degradation ----------------------------------------------
  /// Cooperative wall-clock budget, polled at each epoch boundary. When it
  /// expires the loop stops cleanly: the history is marked `timed_out` and
  /// the model keeps its best-so-far parameters (the best-validation epoch
  /// when restore_best_params is set, else the last finished epoch).
  Deadline deadline;
};

struct TrainHistory {
  /// Per recorded epoch. Epochs interrupted by a divergence rollback
  /// produced no usable losses and are not recorded here.
  std::vector<Real> train_loss;
  std::vector<Real> val_loss;    ///< per epoch (-1 when no validation)
  Index epochs_run = 0;
  bool early_stopped = false;
  Real best_val_loss = -1.0;
  Index best_epoch = 0;          ///< 1-based epoch of best_val_loss (0: none)
  Index recoveries = 0;          ///< divergence rollbacks performed
  bool diverged = false;         ///< stopped non-finite with budget spent
  bool timed_out = false;        ///< deadline expired before the epoch cap
  Real final_learning_rate = 0.0;  ///< learning rate after any backoffs
};

/// Trains `model` on rows of (x, y). Deterministic for a fixed seed.
TrainHistory train(Mlp& model, const Matrix& x, const Matrix& y,
                   const TrainOptions& options = {});

/// Gathers the given rows of m into a new matrix.
Matrix gather_rows(const Matrix& m, const std::vector<Index>& rows);

}  // namespace ppdl::nn
