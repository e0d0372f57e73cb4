#include "nn/loss.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ppdl::nn {

std::string to_string(Loss loss) {
  switch (loss) {
    case Loss::kMse:
      return "mse";
    case Loss::kMae:
      return "mae";
    case Loss::kHuber:
      return "huber";
  }
  return "?";
}

Loss parse_loss(const std::string& name) {
  if (name == "mse") {
    return Loss::kMse;
  }
  if (name == "mae") {
    return Loss::kMae;
  }
  if (name == "huber") {
    return Loss::kHuber;
  }
  PPDL_REQUIRE(false, "unknown loss: " + name);
  return Loss::kMse;  // unreachable
}

Real loss_term(Real d, Loss loss, Real huber_delta) {
  switch (loss) {
    case Loss::kMse:
      return d * d;
    case Loss::kMae:
      return std::abs(d);
    case Loss::kHuber: {
      const Real ad = std::abs(d);
      return (ad <= huber_delta) ? 0.5 * d * d
                                 : huber_delta * (ad - 0.5 * huber_delta);
    }
  }
  return d * d;
}

Real loss_term_gradient(Real d, Loss loss, Real huber_delta) {
  switch (loss) {
    case Loss::kMse:
      return 2.0 * d;
    case Loss::kMae:
      return d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
    case Loss::kHuber:
      return std::abs(d) <= huber_delta ? d
                                        : huber_delta * (d > 0.0 ? 1.0 : -1.0);
  }
  return 2.0 * d;
}

Real loss_value(const Matrix& pred, const Matrix& target, Loss loss,
                Real huber_delta) {
  PPDL_REQUIRE(pred.rows() == target.rows() && pred.cols() == target.cols(),
               "loss: shape mismatch");
  const auto p = pred.data();
  const auto t = target.data();
  PPDL_REQUIRE(!p.empty(), "loss of empty matrices");
  Real acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += loss_term(p[i] - t[i], loss, huber_delta);
  }
  return acc / static_cast<Real>(p.size());
}

Matrix loss_gradient(const Matrix& pred, const Matrix& target, Loss loss,
                     Real huber_delta) {
  PPDL_REQUIRE(pred.rows() == target.rows() && pred.cols() == target.cols(),
               "loss gradient: shape mismatch");
  Matrix grad(pred.rows(), pred.cols());
  const auto p = pred.data();
  const auto t = target.data();
  auto g = grad.data();
  const Real inv_n = 1.0 / static_cast<Real>(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    g[i] = loss_term_gradient(p[i] - t[i], loss, huber_delta) * inv_n;
  }
  return grad;
}

}  // namespace ppdl::nn
