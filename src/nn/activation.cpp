#include "nn/activation.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ppdl::nn {

namespace {
constexpr Real kLeakySlope = 0.01;
}

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kLeakyRelu:
      return "leaky_relu";
    case Activation::kTanh:
      return "tanh";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

Activation parse_activation(const std::string& name) {
  if (name == "identity") {
    return Activation::kIdentity;
  }
  if (name == "relu") {
    return Activation::kRelu;
  }
  if (name == "leaky_relu") {
    return Activation::kLeakyRelu;
  }
  if (name == "tanh") {
    return Activation::kTanh;
  }
  if (name == "sigmoid") {
    return Activation::kSigmoid;
  }
  PPDL_REQUIRE(false, "unknown activation: " + name);
  return Activation::kIdentity;  // unreachable
}

Real activate(Real x, Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kLeakyRelu:
      return x > 0.0 ? x : kLeakySlope * x;
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

Real activate_grad(Real x, Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kRelu:
      return x > 0.0 ? 1.0 : 0.0;
    case Activation::kLeakyRelu:
      return x > 0.0 ? 1.0 : kLeakySlope;
    case Activation::kTanh: {
      const Real t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::kSigmoid: {
      const Real s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  return 1.0;
}

namespace {
template <Activation A>
void apply_each(std::span<Real> values) {
  for (Real& v : values) {
    v = activate(v, A);
  }
}

template <Activation A>
void gradient_each(std::span<const Real> z, std::span<Real> grad) {
  for (std::size_t i = 0; i < z.size(); ++i) {
    grad[i] = activate_grad(z[i], A);
  }
}
}  // namespace

void apply_activation(std::span<Real> values, Activation a) {
  // One switch per call, not per element: each loop body is then
  // branch-free and the ReLU select vectorizes.
  switch (a) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      return apply_each<Activation::kRelu>(values);
    case Activation::kLeakyRelu:
      return apply_each<Activation::kLeakyRelu>(values);
    case Activation::kTanh:
      return apply_each<Activation::kTanh>(values);
    case Activation::kSigmoid:
      return apply_each<Activation::kSigmoid>(values);
  }
}

void activation_gradient(std::span<const Real> z, std::span<Real> grad,
                         Activation a) {
  PPDL_REQUIRE(z.size() == grad.size(), "activation_gradient: size mismatch");
  // One switch per call, as in apply_activation.
  switch (a) {
    case Activation::kIdentity:
      return gradient_each<Activation::kIdentity>(z, grad);
    case Activation::kRelu:
      return gradient_each<Activation::kRelu>(z, grad);
    case Activation::kLeakyRelu:
      return gradient_each<Activation::kLeakyRelu>(z, grad);
    case Activation::kTanh:
      return gradient_each<Activation::kTanh>(z, grad);
    case Activation::kSigmoid:
      return gradient_each<Activation::kSigmoid>(z, grad);
  }
}

Matrix activation_gradient(const Matrix& z, Activation a) {
  Matrix g(z.rows(), z.cols());
  activation_gradient(z.data(), g.data(), a);
  return g;
}

}  // namespace ppdl::nn
