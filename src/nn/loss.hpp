// Regression loss functions: value and gradient w.r.t. predictions.
#pragma once

#include <string>

#include "nn/activation.hpp"

namespace ppdl::nn {

enum class Loss { kMse, kMae, kHuber };

std::string to_string(Loss loss);
Loss parse_loss(const std::string& name);

/// One element's loss at residual d = pred − target; loss_value is the
/// mean of these.
Real loss_term(Real d, Loss loss, Real huber_delta = 1.0);

/// One element's dL/dpred at residual d, before loss_gradient divides it
/// by the element count.
Real loss_term_gradient(Real d, Loss loss, Real huber_delta = 1.0);

/// Loss value averaged over all elements of (pred, target).
Real loss_value(const Matrix& pred, const Matrix& target, Loss loss,
                Real huber_delta = 1.0);

/// dL/dpred, same shape as pred (already divided by element count so the
/// gradient magnitude is batch-size independent).
Matrix loss_gradient(const Matrix& pred, const Matrix& target, Loss loss,
                     Real huber_delta = 1.0);

}  // namespace ppdl::nn
