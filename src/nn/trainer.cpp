#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace ppdl::nn {

namespace {

// Trainers may run concurrently on pool workers (the PPDL model fits layer
// models in parallel), so instrumentation here sticks to counters and
// histograms — commutative tallies that stay deterministic regardless of
// which trainer records first. No gauges.
constexpr obs::HistogramSpec kLossSpec{-8.0, 2.0, 40};

void record_train_outcome(const TrainHistory& history) {
  obs::count("train.runs");
  obs::count("train.epochs", history.epochs_run);
  obs::count("train.rollbacks", history.recoveries);
  if (history.diverged) {
    obs::count("train.diverged");
  }
  if (history.early_stopped) {
    obs::count("train.early_stops");
  }
  if (history.timed_out) {
    obs::count("train.timeouts");
  }
}

}  // namespace

Matrix gather_rows(const Matrix& m, const std::vector<Index>& rows) {
  Matrix out(static_cast<Index>(rows.size()), m.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PPDL_REQUIRE(rows[i] >= 0 && rows[i] < m.rows(),
                 "gather_rows: index out of range");
    std::copy(m.row(rows[i]).begin(), m.row(rows[i]).end(),
              out.row(static_cast<Index>(i)).begin());
  }
  return out;
}

TrainHistory train(Mlp& model, const Matrix& x, const Matrix& y,
                   const TrainOptions& options) {
  PPDL_REQUIRE(x.rows() == y.rows(), "train: x/y row mismatch");
  PPDL_REQUIRE(x.rows() > 0, "train: empty dataset");
  PPDL_REQUIRE(x.cols() == model.config().inputs,
               "train: input width mismatch");
  PPDL_REQUIRE(y.cols() == model.config().outputs,
               "train: output width mismatch");
  PPDL_REQUIRE(options.epochs > 0 && options.batch_size > 0,
               "train: epochs and batch size must be > 0");
  PPDL_REQUIRE(options.validation_fraction >= 0.0 &&
                   options.validation_fraction < 1.0,
               "train: validation fraction must be in [0,1)");

  Rng rng(options.shuffle_seed);

  // Shuffled split into train / validation.
  std::vector<Index> order(static_cast<std::size_t>(x.rows()));
  for (Index i = 0; i < x.rows(); ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  rng.shuffle(order);

  const Index val_rows = static_cast<Index>(
      static_cast<Real>(x.rows()) * options.validation_fraction);
  const Index train_rows = x.rows() - val_rows;
  PPDL_REQUIRE(train_rows > 0, "train: validation split leaves no data");

  std::vector<Index> train_idx(order.begin(), order.begin() + train_rows);
  std::vector<Index> val_idx(order.begin() + train_rows, order.end());
  const Matrix x_train = gather_rows(x, train_idx);
  const Matrix y_train = gather_rows(y, train_idx);
  const Matrix x_val = val_rows > 0 ? gather_rows(x, val_idx) : Matrix();
  const Matrix y_val = val_rows > 0 ? gather_rows(y, val_idx) : Matrix();

  auto optimizer = make_optimizer(options.optimizer, options.learning_rate);
  const std::vector<ParamSlot> slots = model.parameter_slots();

  TrainHistory history;
  history.final_learning_rate = options.learning_rate;
  Real best_val = -1.0;
  Index since_best = 0;
  Real lr = options.learning_rate;

  // Last finite-epoch parameters (divergence rollback target) and the
  // best-validation checkpoint.
  std::vector<Matrix> good_params = model.snapshot_parameters();
  std::vector<Matrix> best_params;

  // Divergence recovery: roll back to the last finite epoch and restart
  // the optimizer (fresh moments — the old ones may carry non-finite
  // state) at a backed-off learning rate. False once the budget is spent.
  const auto recover = [&]() -> bool {
    if (!options.recover_on_divergence ||
        history.recoveries >= options.max_recoveries) {
      history.diverged = true;
      return false;
    }
    ++history.recoveries;
    obs::count("train.lr_backoffs");
    model.restore_parameters(good_params);
    lr *= options.lr_backoff_factor;
    history.final_learning_rate = lr;
    optimizer = make_optimizer(options.optimizer, lr);
    return true;
  };

  std::vector<Index> batch_order(static_cast<std::size_t>(train_rows));
  for (Index i = 0; i < train_rows; ++i) {
    batch_order[static_cast<std::size_t>(i)] = i;
  }

  // Data-parallel minibatches: each batch splits into fixed row chunks
  // (grain below — never the thread count), every chunk accumulates into
  // its own gradient buffer, and the buffers are reduced into the model's
  // gradient slots in chunk-index order before the optimizer step. That
  // fixed decomposition + ordered combine is what keeps trained weights
  // bit-identical across PPDL_THREADS settings. A chunk reads its rows of
  // x_train/y_train through batch_order, so batches are never copied.
  constexpr Index kGradRowGrain = 16;
  const Index max_batch_rows = std::min(options.batch_size, train_rows);
  const Index max_chunks = parallel::chunk_count(max_batch_rows,
                                                 kGradRowGrain);
  std::vector<Mlp::GradientBuffers> chunk_grads;
  chunk_grads.reserve(static_cast<std::size_t>(max_chunks));
  for (Index c = 0; c < max_chunks; ++c) {
    chunk_grads.push_back(model.make_gradient_buffers());
  }

  for (Index epoch = 1; epoch <= options.epochs; ++epoch) {
    if (options.deadline.expired()) {
      // Graceful degradation: keep the best-so-far parameters and report
      // the truncation instead of throwing the work away.
      history.timed_out = true;
      break;
    }
    rng.shuffle(batch_order);
    Real epoch_loss = 0.0;
    Index batches = 0;
    bool epoch_diverged = false;
    for (Index start = 0; start < train_rows; start += options.batch_size) {
      const Index stop = std::min(start + options.batch_size, train_rows);
      const std::span<const Index> batch(
          batch_order.data() + start, static_cast<std::size_t>(stop - start));

      const Index rows = stop - start;
      const Index chunks = parallel::chunk_count(rows, kGradRowGrain);
      const Real batch_elems = static_cast<Real>(rows * y_train.cols());
      for (Index c = 0; c < chunks; ++c) {
        chunk_grads[static_cast<std::size_t>(c)].clear();
      }
      parallel::for_range(rows, kGradRowGrain, [&](Index b, Index e) {
        const Index chunk = b / kGradRowGrain;
        const Real scale =
            static_cast<Real>((e - b) * y_train.cols()) / batch_elems;
        model.accumulate_gradients(
            x_train, y_train,
            batch.subspan(static_cast<std::size_t>(b),
                          static_cast<std::size_t>(e - b)),
            options.loss, scale, chunk_grads[static_cast<std::size_t>(chunk)]);
      });
      model.zero_gradients();
      Real loss_sum = 0.0;
      for (Index c = 0; c < chunks; ++c) {
        const auto& g = chunk_grads[static_cast<std::size_t>(c)];
        model.add_gradients(g);
        loss_sum += g.loss_sum;
      }
      const Real batch_loss = loss_sum / batch_elems;
      if (!std::isfinite(batch_loss)) {
        epoch_diverged = true;
        break;
      }
      epoch_loss += batch_loss;
      ++batches;
      if (options.gradient_clip_norm > 0.0) {
        const Real norm = model.gradient_norm();
        if (!std::isfinite(norm)) {
          epoch_diverged = true;
          break;
        }
        if (norm > options.gradient_clip_norm) {
          model.scale_gradients(options.gradient_clip_norm / norm);
        }
      }
      optimizer->step(slots);
    }

    Real val_loss = -1.0;
    if (!epoch_diverged) {
      epoch_loss /= static_cast<Real>(std::max<Index>(batches, 1));
      if (val_rows > 0) {
        const Matrix val_pred = model.predict(x_val);
        val_loss = loss_value(val_pred, y_val, options.loss);
        if (!std::isfinite(val_loss)) {
          epoch_diverged = true;
        }
      }
    }

    if (epoch_diverged) {
      // The epoch produced no usable losses; the recovery consumes its
      // slot (the epoch counter still advances, bounding total work).
      if (!recover()) {
        break;
      }
      continue;
    }

    history.train_loss.push_back(epoch_loss);
    history.val_loss.push_back(val_loss);
    history.epochs_run = epoch;
    good_params = model.snapshot_parameters();
    if (epoch_loss > 0.0 && std::isfinite(epoch_loss)) {
      obs::observe("train.log10_epoch_loss", std::log10(epoch_loss),
                   kLossSpec);
    }

    if (options.on_epoch) {
      options.on_epoch(epoch, epoch_loss, val_loss);
    }

    if (val_rows > 0) {
      if (best_val < 0.0 || val_loss < best_val) {
        best_val = val_loss;
        history.best_epoch = epoch;
        since_best = 0;
        if (options.restore_best_params) {
          best_params = model.snapshot_parameters();
        }
      } else if (options.early_stopping_patience > 0 &&
                 ++since_best >= options.early_stopping_patience) {
        history.early_stopped = true;
        break;
      }
    }
  }
  if (options.restore_best_params && !best_params.empty()) {
    model.restore_parameters(best_params);
  }
  history.best_val_loss = best_val;
  record_train_outcome(history);
  return history;
}

}  // namespace ppdl::nn
