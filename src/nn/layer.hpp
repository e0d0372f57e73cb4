// Fully connected layer with cached forward state for backprop.
#pragma once

#include "common/rng.hpp"
#include "nn/activation.hpp"

namespace ppdl::nn {

/// y = σ(x · W + b) for a batch of row vectors x.
class DenseLayer {
 public:
  /// He-uniform initialization scaled for the fan-in (suits ReLU family);
  /// biases start at zero.
  DenseLayer(Index in_features, Index out_features, Activation activation,
             Rng& rng);

  Index in_features() const { return weights_.rows(); }
  Index out_features() const { return weights_.cols(); }
  Activation activation() const { return activation_; }

  /// Forward pass; caches input and pre-activations when `train` is true.
  Matrix forward(const Matrix& x, bool train);

  /// Backward pass for the cached batch: takes dL/dy, fills dL/dW and dL/db,
  /// returns dL/dx. Must follow a forward(…, /*train=*/true).
  Matrix backward(const Matrix& grad_out);

  // Stateless counterparts for data-parallel training: no member caches or
  // gradient buffers are touched, so several sub-batches can flow through
  // the same (read-only) weights concurrently.

  /// Forward returning the activation and writing pre-activations into
  /// `preact`. Const — safe to call concurrently.
  Matrix forward_into(const Matrix& x, Matrix& preact) const;

  /// Backward for a sub-batch: given dL/dy plus the (x, preact) pair the
  /// matching forward_into() saw, accumulates (+=) dW/db into the caller's
  /// buffers and returns dL/dx. Const — safe to call concurrently with
  /// distinct buffers.
  Matrix backward_into(const Matrix& grad_out, const Matrix& x,
                       const Matrix& preact, Matrix& grad_w,
                       Matrix& grad_b) const;

  // Parameter and gradient access for optimizers and serialization.
  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }
  const Matrix& weight_grad() const { return grad_weights_; }
  const Matrix& bias_grad() const { return grad_bias_; }
  Matrix& weight_grad() { return grad_weights_; }
  Matrix& bias_grad() { return grad_bias_; }

  Index parameter_count() const {
    return weights_.rows() * weights_.cols() + bias_.cols();
  }

 private:
  Matrix weights_;       // in × out
  Matrix bias_;          // 1 × out
  Activation activation_;

  // Training caches.
  Matrix cached_input_;   // batch × in
  Matrix cached_preact_;  // batch × out
  bool has_cache_ = false;

  Matrix grad_weights_;
  Matrix grad_bias_;
};

}  // namespace ppdl::nn
