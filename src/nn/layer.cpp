#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::nn {

DenseLayer::DenseLayer(Index in_features, Index out_features,
                       Activation activation, Rng& rng)
    : weights_(in_features, out_features),
      bias_(1, out_features),
      activation_(activation),
      grad_weights_(in_features, out_features),
      grad_bias_(1, out_features) {
  PPDL_REQUIRE(in_features > 0 && out_features > 0,
               "layer dimensions must be > 0");
  // He-uniform: U(−√(6/fan_in), +√(6/fan_in)).
  const Real bound = std::sqrt(6.0 / static_cast<Real>(in_features));
  for (Real& w : weights_.data()) {
    w = rng.uniform(-bound, bound);
  }
}

Matrix DenseLayer::forward_into(const Matrix& x, Matrix& preact) const {
  PPDL_REQUIRE(x.cols() == weights_.rows(), "layer forward: shape mismatch");
  Matrix z = x.multiply(weights_);
  for (Index r = 0; r < z.rows(); ++r) {
    for (Index c = 0; c < z.cols(); ++c) {
      z(r, c) += bias_(0, c);
    }
  }
  preact = z;
  apply_activation(z.data(), activation_);
  return z;
}

Matrix DenseLayer::forward(const Matrix& x, bool train) {
  Matrix z;
  Matrix a = forward_into(x, z);
  if (train) {
    cached_input_ = x;
    cached_preact_ = std::move(z);
    has_cache_ = true;
  }
  return a;
}

Matrix DenseLayer::backward_into(const Matrix& grad_out, const Matrix& x,
                                 const Matrix& preact, Matrix& grad_w,
                                 Matrix& grad_b) const {
  PPDL_REQUIRE(grad_out.rows() == preact.rows() &&
                   grad_out.cols() == preact.cols(),
               "layer backward: shape mismatch");
  PPDL_REQUIRE(grad_w.rows() == weights_.rows() &&
                   grad_w.cols() == weights_.cols() &&
                   grad_b.cols() == bias_.cols(),
               "layer backward: gradient buffer shape mismatch");

  // δ = grad_out ⊙ σ'(z)
  Matrix delta(preact.rows(), preact.cols());
  activation_gradient(preact.data(), delta.data(), activation_);
  {
    auto d = delta.data();
    const auto g = grad_out.data();
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] *= g[i];
    }
  }

  // dW += xᵀ δ ; db += column sums of δ ; dx = δ Wᵀ.
  for (Index r = 0; r < x.rows(); ++r) {
    for (Index i = 0; i < grad_w.rows(); ++i) {
      const Real xi = x(r, i);
      if (xi == 0.0) {
        continue;
      }
      for (Index j = 0; j < grad_w.cols(); ++j) {
        grad_w(i, j) += xi * delta(r, j);
      }
    }
  }
  for (Index c = 0; c < grad_b.cols(); ++c) {
    Real acc = 0.0;
    for (Index r = 0; r < delta.rows(); ++r) {
      acc += delta(r, c);
    }
    grad_b(0, c) += acc;
  }
  // Same j order, zero-skip and row-parallel grain as delta.multiply(Wᵀ),
  // without copying Wᵀ. Each row belongs to one chunk, so the bits do not
  // depend on the thread count.
  const Index n_in = weights_.rows();
  const Index n_out = weights_.cols();
  const Real* w = weights_.data().data();
  Matrix dx(delta.rows(), n_in);
  constexpr Index kTargetFlopsPerChunk = 65536;
  const Index grain =
      std::max<Index>(1, kTargetFlopsPerChunk / std::max<Index>(1, n_in * n_out));
  parallel::for_range(delta.rows(), grain, [&](Index begin, Index end) {
    for (Index r = begin; r < end; ++r) {
      const Real* dr = delta.data().data() + r * n_out;
      Real* xr = dx.data().data() + r * n_in;
      for (Index j = 0; j < n_out; ++j) {
        if (dr[j] == 0.0) {
          continue;
        }
        for (Index i = 0; i < n_in; ++i) {
          xr[i] += dr[j] * w[i * n_out + j];
        }
      }
    }
  });
  return dx;
}

Matrix DenseLayer::backward(const Matrix& grad_out) {
  PPDL_REQUIRE(has_cache_, "backward without cached forward pass");
  // Gradients are written in place: optimizer ParamSlot spans captured once
  // must stay valid across training steps.
  std::fill(grad_weights_.data().begin(), grad_weights_.data().end(), 0.0);
  std::fill(grad_bias_.data().begin(), grad_bias_.data().end(), 0.0);
  Matrix grad_in = backward_into(grad_out, cached_input_, cached_preact_,
                                 grad_weights_, grad_bias_);
  has_cache_ = false;
  return grad_in;
}

}  // namespace ppdl::nn
