#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::nn {

MlpConfig MlpConfig::paper_default(Index inputs, Index outputs,
                                   Index hidden_layers, Index hidden_units) {
  MlpConfig c;
  c.inputs = inputs;
  c.outputs = outputs;
  c.hidden.assign(static_cast<std::size_t>(hidden_layers), hidden_units);
  return c;
}

Mlp::Mlp(const MlpConfig& config, Rng& rng) : config_(config) {
  PPDL_REQUIRE(config.inputs > 0 && config.outputs > 0,
               "MLP needs positive input/output sizes");
  Index in = config.inputs;
  for (const Index units : config.hidden) {
    PPDL_REQUIRE(units > 0, "hidden layer size must be > 0");
    layers_.emplace_back(in, units, config.hidden_activation, rng);
    in = units;
  }
  layers_.emplace_back(in, config.outputs, config.output_activation, rng);
}

DenseLayer& Mlp::layer(Index i) {
  PPDL_REQUIRE(i >= 0 && i < layer_count(), "layer index out of range");
  return layers_[static_cast<std::size_t>(i)];
}

const DenseLayer& Mlp::layer(Index i) const {
  PPDL_REQUIRE(i >= 0 && i < layer_count(), "layer index out of range");
  return layers_[static_cast<std::size_t>(i)];
}

Matrix Mlp::forward(const Matrix& x, bool train) {
  PPDL_REQUIRE(x.cols() == config_.inputs, "MLP forward: input size mismatch");
  Matrix h = x;
  for (DenseLayer& layer : layers_) {
    h = layer.forward(h, train);
  }
  return h;
}

namespace {

/// Rows per inference block. A constant, so the block split (and the
/// chunking) depends only on the row count.
constexpr Index kBlockRows = 64;

/// Two doubles in one 128-bit vector register (a GCC/Clang vector
/// extension). Its + and × are the scalar IEEE operations lane by lane, so
/// a tile computes exactly what scalar code would, two rows at a time.
typedef Real Pair __attribute__((vector_size(2 * sizeof(Real))));

/// Row pairs per register tile: eight independent sums hide the add
/// latency and fit the 16 vector registers with room to spare.
constexpr Index kTilePairs = 8;
/// Rows per register tile. A short last block is computed to a multiple of
/// this; the padding rows start zeroed, stay finite and are never copied
/// out.
constexpr Index kTileRows = 2 * kTilePairs;

/// Pre-activations of one layer over one block of feature-major
/// activations (`in[k * kBlockRows + r]`): out = in · W + b, one output
/// column and kTileRows rows at a time with the accumulators in registers.
/// Each output starts at +0.0, adds in[k]·W[k][j] for k ascending, then the
/// bias — the order of DenseMatrix::multiply plus the bias pass, so the
/// bits match it. That loop skips zero inputs; this one adds their ±0
/// products, which is exact for finite weights: an accumulator that starts
/// at +0.0 never becomes −0.0 in round-to-nearest, and adding ±0 to
/// anything else leaves it unchanged.
void affine_block(const DenseLayer& layer, const Real* in, Real* out,
                  Index padded) {
  const Index n_in = layer.in_features();
  const Index n_out = layer.out_features();
  const Real* w = layer.weights().data().data();
  const Real* b = layer.bias().data().data();
  for (Index j = 0; j < n_out; ++j) {
    const Pair bias = {b[j], b[j]};
    for (Index r0 = 0; r0 < padded; r0 += kTileRows) {
      Pair acc[kTilePairs] = {};
      for (Index k = 0; k < n_in; ++k) {
        Pair a[kTilePairs];
        std::memcpy(a, in + k * kBlockRows + r0, sizeof a);
        const Pair wkj = {w[k * n_out + j], w[k * n_out + j]};
        for (Index p = 0; p < kTilePairs; ++p) {
          acc[p] += a[p] * wkj;
        }
      }
      for (Index p = 0; p < kTilePairs; ++p) {
        const Pair z = acc[p] + bias;
        std::memcpy(out + j * kBlockRows + r0 + 2 * p, &z, sizeof z);
      }
    }
  }
}

}  // namespace

Matrix Mlp::predict(const Matrix& x) const {
  PPDL_REQUIRE(x.cols() == config_.inputs, "MLP predict: input size mismatch");
  Index widest = config_.inputs;
  for (const DenseLayer& layer : layers_) {
    widest = std::max(widest, layer.out_features());
  }
  const Index n_in = config_.inputs;
  const Index n_out = config_.outputs;
  Matrix y(x.rows(), n_out);
  const Real* xd = x.data().data();
  Real* yd = y.data().data();
  // Each block runs through every layer in two ping-pong buffers, so no
  // N×width intermediate is ever allocated.
  parallel::for_range(x.rows(), kBlockRows, [&](Index begin, Index end) {
    const Index rows = end - begin;
    const Index padded = (rows + kTileRows - 1) / kTileRows * kTileRows;
    std::vector<Real> in(static_cast<std::size_t>(widest * kBlockRows));
    std::vector<Real> out(in.size());
    for (Index r = 0; r < rows; ++r) {
      for (Index k = 0; k < n_in; ++k) {
        in[static_cast<std::size_t>(k * kBlockRows + r)] =
            xd[(begin + r) * n_in + k];
      }
    }
    for (const DenseLayer& layer : layers_) {
      affine_block(layer, in.data(), out.data(), padded);
      // σ in a pass of its own: inside the tile, the ReLU select compiles
      // to a branch per element. Rows past `padded` are never read.
      apply_activation(
          {out.data(),
           static_cast<std::size_t>(layer.out_features() * kBlockRows)},
          layer.activation());
      in.swap(out);
    }
    for (Index r = 0; r < rows; ++r) {
      for (Index j = 0; j < n_out; ++j) {
        yd[(begin + r) * n_out + j] =
            in[static_cast<std::size_t>(j * kBlockRows + r)];
      }
    }
  });
  return y;
}

void Mlp::backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = it->backward(grad);
  }
}

void Mlp::GradientBuffers::clear() {
  loss_sum = 0.0;
  for (Matrix& g : weight_grads) {
    std::fill(g.data().begin(), g.data().end(), 0.0);
  }
  for (Matrix& g : bias_grads) {
    std::fill(g.data().begin(), g.data().end(), 0.0);
  }
}

Mlp::GradientBuffers Mlp::make_gradient_buffers() const {
  GradientBuffers buffers;
  buffers.weight_grads.reserve(layers_.size());
  buffers.bias_grads.reserve(layers_.size());
  for (const DenseLayer& layer : layers_) {
    buffers.weight_grads.emplace_back(layer.weights().rows(),
                                      layer.weights().cols());
    buffers.bias_grads.emplace_back(1, layer.bias().cols());
  }
  return buffers;
}

namespace {

/// The operand row that stands in for a skipped one: longer than any tile.
alignas(16) constexpr Real kZeroRow[kTileRows] = {};

/// out[j] += Σ_k s_k · m_k[j] over one tile of kVecs·(lanes of V) outputs,
/// k ascending from 0 to `count`, where s_k = s[k * s_stride] and m_k is
/// row k of `m` (leading dimension `ld`). The tile's sums stay in
/// registers across the k loop. Where s_k == 0 the layer-by-layer path
/// skips the whole row; here m_k is swapped for kZeroRow instead, so no
/// branch depends on the data and the ±0 product adds nothing. Unlike
/// predict's tile (which adds s_k · m_k[j] = ±0 · m_k[j]) this stays exact
/// when m_k holds inf or NaN, whose product with 0 is NaN. V is Real or
/// Pair; `s_k * v` broadcasts s_k over a Pair's lanes.
template <typename V, std::size_t kVecs>
void accumulate_tile(Real* out, const Real* s, Index s_stride, Index count,
                     const Real* m, Index ld) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(Real);
  V acc[kVecs];
  std::memcpy(acc, out, sizeof acc);
  for (Index k = 0; k < count; ++k) {
    const Real sk = s[k * s_stride];
    const Real* const candidates[2] = {m + k * ld, kZeroRow};
    const Real* row = candidates[sk == 0.0];
    for (std::size_t p = 0; p < kVecs; ++p) {
      V v;
      std::memcpy(&v, row + p * kLanes, sizeof v);
      acc[p] += sk * v;
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// accumulate_tile over out[0, n): full 16-lane tiles, then one lane at a
/// time (every product of the paper's net is 16 or 1 wide). Each out[j] sees
/// the same sequence of additions whatever tile it falls in.
void accumulate_products(Real* out, Index n, const Real* s, Index s_stride,
                         Index count, const Real* m, Index ld) {
  Index j = 0;
  for (; j + kTileRows <= n; j += kTileRows) {
    accumulate_tile<Pair, kTilePairs>(out + j, s, s_stride, count, m + j, ld);
  }
  for (; j < n; ++j) {
    accumulate_tile<Real, 1>(out + j, s, s_stride, count, m + j, ld);
  }
}

}  // namespace

void Mlp::accumulate_gradients(const Matrix& x, const Matrix& y,
                               std::span<const Index> rows, Loss loss,
                               Real delta_scale, GradientBuffers& out) const {
  PPDL_REQUIRE(x.cols() == config_.inputs,
               "accumulate_gradients: input size mismatch");
  PPDL_REQUIRE(y.rows() == x.rows() && y.cols() == config_.outputs,
               "accumulate_gradients: target shape mismatch");
  PPDL_REQUIRE(!rows.empty(), "accumulate_gradients: no rows");
  PPDL_REQUIRE(out.weight_grads.size() == layers_.size() &&
                   out.bias_grads.size() == layers_.size(),
               "accumulate_gradients: buffer layer count mismatch");
  const Index n_rows = static_cast<Index>(rows.size());

  // Scratch: the input rows, then (z, σ(z)) per layer, each n_rows × width
  // and row-major, so a layer's input sits just before its z. After them
  // come the upstream gradient and Wᵀ.
  Index widest = config_.inputs;
  Index largest = 0;
  Index slots = config_.inputs;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    PPDL_REQUIRE(out.weight_grads[l].rows() == layer.in_features() &&
                     out.weight_grads[l].cols() == layer.out_features() &&
                     out.bias_grads[l].cols() == layer.out_features(),
                 "accumulate_gradients: buffer shape mismatch");
    widest = std::max(widest, layer.out_features());
    largest = std::max(largest, layer.in_features() * layer.out_features());
    slots += 2 * layer.out_features();
  }
  const auto need =
      static_cast<std::size_t>(n_rows * (slots + widest) + largest);
  if (out.scratch.size() < need) {
    out.scratch.resize(need);
  }
  Real* slot = out.scratch.data();

  const Index n_inputs = config_.inputs;
  const Real* xd = x.data().data();
  for (Index r = 0; r < n_rows; ++r) {
    const Index row = rows[static_cast<std::size_t>(r)];
    PPDL_REQUIRE(row >= 0 && row < x.rows(),
                 "accumulate_gradients: row index out of range");
    std::copy(xd + row * n_inputs, xd + (row + 1) * n_inputs,
              slot + r * n_inputs);
  }

  // Forward: z = x · W from +0.0 over inputs ascending, then + b; then σ.
  const Real* a_in = slot;
  slot += n_rows * n_inputs;
  for (const DenseLayer& layer : layers_) {
    const Index n_in = layer.in_features();
    const Index n_out = layer.out_features();
    const Real* w = layer.weights().data().data();
    const Real* b = layer.bias().data().data();
    Real* z = slot;
    Real* a = z + n_rows * n_out;
    std::fill(z, a, 0.0);
    for (Index r = 0; r < n_rows; ++r) {
      Real* zr = z + r * n_out;
      accumulate_products(zr, n_out, a_in + r * n_in, 1, n_in, w, n_out);
      for (Index j = 0; j < n_out; ++j) {
        zr[j] += b[j];
      }
    }
    std::copy(z, a, a);
    apply_activation({a, static_cast<std::size_t>(n_rows * n_out)},
                     layer.activation());
    a_in = a;
    slot = a + n_rows * n_out;
  }

  // Loss over the rows in order, as loss_value and loss_gradient see the
  // gathered batch; its gradient seeds the upstream buffer.
  const Index n_outputs = config_.outputs;
  const Real elems = static_cast<Real>(n_rows * n_outputs);
  const Real inv_n = 1.0 / elems;
  const Real* yd = y.data().data();
  Real* grad = slot;
  Real loss_acc = 0.0;
  for (Index r = 0; r < n_rows; ++r) {
    const Real* yr = yd + rows[static_cast<std::size_t>(r)] * n_outputs;
    for (Index c = 0; c < n_outputs; ++c) {
      const Real d = a_in[r * n_outputs + c] - yr[c];
      loss_acc += loss_term(d, loss);
      Real& g = grad[r * n_outputs + c];
      g = loss_term_gradient(d, loss) * inv_n;
      if (delta_scale != 1.0) {
        g *= delta_scale;
      }
    }
  }
  out.loss_sum += loss_acc / elems * elems;

  // Backward, last layer first. δ = σ'(z) ⊙ grad overwrites z; then
  // dW += xᵀδ over rows ascending, db += Σ_r δ from +0.0, and (except for
  // the first layer, whose dx nobody reads) grad = δ Wᵀ from +0.0 over
  // outputs ascending.
  Real* wt = grad + n_rows * widest;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const DenseLayer& layer = layers_[l];
    const Index n_in = layer.in_features();
    const Index n_out = layer.out_features();
    Real* delta = slot - 2 * n_rows * n_out;
    const Real* a_prev = delta - n_rows * n_in;
    slot = delta;
    const std::span<Real> deltas(delta,
                                 static_cast<std::size_t>(n_rows * n_out));
    activation_gradient(deltas, deltas, layer.activation());
    for (Index i = 0; i < n_rows * n_out; ++i) {
      delta[i] *= grad[i];
    }

    Real* dw = out.weight_grads[l].data().data();
    for (Index i = 0; i < n_in; ++i) {
      accumulate_products(dw + i * n_out, n_out, a_prev + i, n_in, n_rows,
                          delta, n_out);
    }
    Real* db = out.bias_grads[l].data().data();
    for (Index j = 0; j < n_out; ++j) {
      Real acc = 0.0;
      for (Index r = 0; r < n_rows; ++r) {
        acc += delta[r * n_out + j];
      }
      db[j] += acc;
    }
    if (l == 0) {
      break;
    }

    const Real* w = layer.weights().data().data();
    for (Index i = 0; i < n_in; ++i) {
      for (Index j = 0; j < n_out; ++j) {
        wt[j * n_in + i] = w[i * n_out + j];
      }
    }
    std::fill(grad, grad + n_rows * n_in, 0.0);
    for (Index r = 0; r < n_rows; ++r) {
      accumulate_products(grad + r * n_in, n_in, delta + r * n_out, 1, n_out,
                          wt, n_in);
    }
  }
}

void Mlp::add_gradients(const GradientBuffers& from) {
  PPDL_REQUIRE(from.weight_grads.size() == layers_.size() &&
                   from.bias_grads.size() == layers_.size(),
               "add_gradients: buffer layer count mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto wg = layers_[l].weight_grad().data();
    const auto fw = from.weight_grads[l].data();
    for (std::size_t i = 0; i < wg.size(); ++i) {
      wg[i] += fw[i];
    }
    auto bg = layers_[l].bias_grad().data();
    const auto fb = from.bias_grads[l].data();
    for (std::size_t i = 0; i < bg.size(); ++i) {
      bg[i] += fb[i];
    }
  }
}

void Mlp::zero_gradients() {
  for (DenseLayer& layer : layers_) {
    auto wg = layer.weight_grad().data();
    std::fill(wg.begin(), wg.end(), 0.0);
    auto bg = layer.bias_grad().data();
    std::fill(bg.begin(), bg.end(), 0.0);
  }
}

std::vector<ParamSlot> Mlp::parameter_slots() {
  std::vector<ParamSlot> slots;
  slots.reserve(layers_.size() * 2);
  for (DenseLayer& layer : layers_) {
    slots.push_back({layer.weights().data(), layer.weight_grad().data()});
    slots.push_back({layer.bias().data(), layer.bias_grad().data()});
  }
  return slots;
}

Index Mlp::parameter_count() const {
  Index total = 0;
  for (const DenseLayer& layer : layers_) {
    total += layer.parameter_count();
  }
  return total;
}

std::vector<Matrix> Mlp::snapshot_parameters() const {
  std::vector<Matrix> snapshot;
  snapshot.reserve(layers_.size() * 2);
  for (const DenseLayer& layer : layers_) {
    snapshot.push_back(layer.weights());
    snapshot.push_back(layer.bias());
  }
  return snapshot;
}

void Mlp::restore_parameters(const std::vector<Matrix>& snapshot) {
  PPDL_REQUIRE(snapshot.size() == layers_.size() * 2,
               "parameter snapshot does not match this model");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    DenseLayer& layer = layers_[i];
    const Matrix& w = snapshot[2 * i];
    const Matrix& b = snapshot[2 * i + 1];
    PPDL_REQUIRE(w.rows() == layer.weights().rows() &&
                     w.cols() == layer.weights().cols() &&
                     b.rows() == layer.bias().rows() &&
                     b.cols() == layer.bias().cols(),
                 "parameter snapshot does not match this model");
    layer.weights() = w;
    layer.bias() = b;
  }
}

Real Mlp::gradient_norm() const {
  Real sum_sq = 0.0;
  for (const DenseLayer& layer : layers_) {
    for (const Real g : layer.weight_grad().data()) {
      sum_sq += g * g;
    }
    for (const Real g : layer.bias_grad().data()) {
      sum_sq += g * g;
    }
  }
  return std::sqrt(sum_sq);
}

void Mlp::scale_gradients(Real factor) {
  for (DenseLayer& layer : layers_) {
    for (Real& g : layer.weight_grad().data()) {
      g *= factor;
    }
    for (Real& g : layer.bias_grad().data()) {
      g *= factor;
    }
  }
}

}  // namespace ppdl::nn
