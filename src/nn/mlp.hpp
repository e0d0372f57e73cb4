// Multi-layer perceptron for multi-target regression.
//
// The paper's model: input (X, Y, Id) → 10 hidden layers → width(s).
// Hidden layers use ReLU, the output layer is linear (regression).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace ppdl::nn {

struct MlpConfig {
  Index inputs = 3;
  Index outputs = 1;
  std::vector<Index> hidden;  ///< units per hidden layer
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kIdentity;

  /// The paper's architecture: 10 hidden layers (hyperparameter-optimized).
  static MlpConfig paper_default(Index inputs = 3, Index outputs = 1,
                                 Index hidden_layers = 10,
                                 Index hidden_units = 32);
};

class Mlp {
 public:
  Mlp(const MlpConfig& config, Rng& rng);

  const MlpConfig& config() const { return config_; }
  Index layer_count() const { return static_cast<Index>(layers_.size()); }
  DenseLayer& layer(Index i);
  const DenseLayer& layer(Index i) const;

  /// Forward pass. `train` caches intermediates for a following backward().
  Matrix forward(const Matrix& x, bool train = false);

  /// Inference-only forward (no caching; usable on const models).
  Matrix predict(const Matrix& x) const;

  /// Backpropagate dL/dŷ through the net, filling every layer's gradients.
  void backward(const Matrix& grad_output);

  /// Per-worker gradient buffers for data-parallel training: one (dW, db)
  /// pair per layer, zero-initialized to this model's shapes.
  struct GradientBuffers {
    std::vector<Matrix> weight_grads;
    std::vector<Matrix> bias_grads;
    /// Σ of per-element loss terms over the rows seen (un-normalized, so
    /// sub-batch sums combine exactly).
    Real loss_sum = 0.0;
    /// accumulate_gradients' working memory: the chunk's input rows,
    /// pre-activations and activations of every layer, the upstream
    /// gradient and one transposed weight matrix. Sized on first use and
    /// reused, so a buffer serves one call at a time.
    std::vector<Real> scratch;

    /// Re-zeroes the buffers for the next batch (shapes kept).
    void clear();
  };
  GradientBuffers make_gradient_buffers() const;

  /// Forward + backward over rows `rows` of (x, y) without touching any
  /// member cache or gradient state — const, so several sub-batches can
  /// run concurrently against the same weights. Accumulates (+=) into
  /// `out`. `delta_scale` rescales the loss gradient (loss_gradient()
  /// normalizes by the sub-batch element count; pass sub_elems/batch_elems
  /// to recover gradients of the whole-batch mean). The result is bitwise
  /// that of forward_into()/backward_into() chained over the gathered rows
  /// when `out` starts from make_gradient_buffers() or clear().
  void accumulate_gradients(const Matrix& x, const Matrix& y,
                            std::span<const Index> rows, Loss loss,
                            Real delta_scale, GradientBuffers& out) const;

  /// Adds `from`'s buffers into this model's gradient slots (+=). Called
  /// once per chunk in chunk-index order — the deterministic reduction
  /// that makes trained weights independent of the thread count.
  void add_gradients(const GradientBuffers& from);

  /// Zeroes every layer's gradient slots (before a chunked accumulation).
  void zero_gradients();

  /// Parameter/gradient views for the optimizer (order stable across calls).
  std::vector<ParamSlot> parameter_slots();

  /// Total trainable scalar count.
  Index parameter_count() const;

  // Checkpointing and gradient hygiene for the trainer's recovery path.

  /// Deep copies of every parameter tensor (weights and biases, in layer
  /// order) — a checkpoint restorable with restore_parameters().
  std::vector<Matrix> snapshot_parameters() const;

  /// Restores a snapshot taken from this (or an identically shaped) model.
  void restore_parameters(const std::vector<Matrix>& snapshot);

  /// Global L2 norm over all parameter gradients (after a backward()).
  Real gradient_norm() const;

  /// Scales every gradient tensor in place (gradient-norm clipping).
  void scale_gradients(Real factor);

 private:
  MlpConfig config_;
  std::vector<DenseLayer> layers_;
};

}  // namespace ppdl::nn
