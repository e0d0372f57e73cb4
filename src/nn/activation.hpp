// Element-wise activation functions and their derivatives.
#pragma once

#include <span>
#include <string>

#include "common/types.hpp"
#include "linalg/dense.hpp"

namespace ppdl::nn {

/// Matrix type shared across the NN stack (row-major dense, Real scalar).
using Matrix = linalg::DenseMatrix;

enum class Activation { kIdentity, kRelu, kLeakyRelu, kTanh, kSigmoid };

std::string to_string(Activation a);
Activation parse_activation(const std::string& name);

/// Scalar forward value.
Real activate(Real x, Activation a);

/// Derivative dσ/dx at pre-activation x.
Real activate_grad(Real x, Activation a);

/// In-place element-wise application, e.g. to a matrix's data().
void apply_activation(std::span<Real> values, Activation a);

/// Element-wise derivative at pre-activations: grad[i] = σ'(z[i]). One
/// switch per call, not per element. `grad` may be `z` itself.
void activation_gradient(std::span<const Real> z, std::span<Real> grad,
                         Activation a);

/// Element-wise derivative matrix evaluated at pre-activations `z`.
Matrix activation_gradient(const Matrix& z, Activation a);

}  // namespace ppdl::nn
