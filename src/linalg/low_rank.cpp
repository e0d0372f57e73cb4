#include "linalg/low_rank.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/dense.hpp"

namespace ppdl::linalg {

CholeskyPreconditioner::CholeskyPreconditioner(
    const SparseCholesky& factorization)
    : factorization_(factorization) {
  const Index n = factorization.dimension();
  const auto rp = factorization.factor_row_ptr();
  const auto ci = factorization.factor_col_idx();
  const auto lv = factorization.factor_values();
  row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  col_idx_.reserve(lv.size());
  values_.reserve(lv.size());
  for (Index i = 0; i < n; ++i) {
    // Diagonal is last in each row. Off-diagonal zeros (cancellation in an
    // exact-fill row) contribute nothing to the sweeps and are skipped.
    const Index last = rp[static_cast<std::size_t>(i) + 1] - 1;
    for (Index k = rp[static_cast<std::size_t>(i)]; k < last; ++k) {
      if (lv[static_cast<std::size_t>(k)] != 0.0) {
        col_idx_.push_back(
            static_cast<std::int32_t>(ci[static_cast<std::size_t>(k)]));
        values_.push_back(
            static_cast<float>(lv[static_cast<std::size_t>(k)]));
      }
    }
    col_idx_.push_back(static_cast<std::int32_t>(i));
    values_.push_back(static_cast<float>(lv[static_cast<std::size_t>(last)]));
    row_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(values_.size());
  }
  work_.resize(static_cast<std::size_t>(n));
}

void CholeskyPreconditioner::apply(std::span<const Real> r,
                                   std::span<Real> out) const {
  const Index n = factorization_.dimension();
  PPDL_REQUIRE(static_cast<Index>(r.size()) == n,
               "frozen-cholesky apply: size mismatch");
  PPDL_REQUIRE(r.size() == out.size(),
               "frozen-cholesky apply: output size mismatch");

  const auto perm = factorization_.permutation();
  float* const x = work_.data();
  if (perm.empty()) {
    for (Index i = 0; i < n; ++i) {
      x[i] = static_cast<float>(r[static_cast<std::size_t>(i)]);
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      x[perm[static_cast<std::size_t>(i)]] =
          static_cast<float>(r[static_cast<std::size_t>(i)]);
    }
  }

  const std::int32_t* const rp = row_ptr_.data();
  const std::int32_t* const ci = col_idx_.data();
  const float* const lv = values_.data();
  // Forward: L z = r.
  for (Index i = 0; i < n; ++i) {
    const std::int32_t beg = rp[i];
    const std::int32_t end = rp[i + 1];
    float acc = x[i];
    for (std::int32_t k = beg; k < end - 1; ++k) {
      acc -= lv[k] * x[ci[k]];
    }
    x[i] = acc / lv[end - 1];
  }
  // Backward: Lᵀ y = z.
  for (Index i = n - 1; i >= 0; --i) {
    const std::int32_t beg = rp[i];
    const std::int32_t end = rp[i + 1];
    const float yi = x[i] / lv[end - 1];
    x[i] = yi;
    for (std::int32_t k = beg; k < end - 1; ++k) {
      x[ci[k]] -= lv[k] * yi;
    }
  }

  if (perm.empty()) {
    for (Index i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = static_cast<Real>(x[i]);
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<Real>(x[perm[static_cast<std::size_t>(i)]]);
    }
  }
}

WoodburyResult woodbury_solve(const SparseCholesky& a0,
                              std::span<const RankOneUpdate> terms,
                              std::span<const Real> b) {
  const Index n = a0.dimension();
  PPDL_REQUIRE(static_cast<Index>(b.size()) == n,
               "woodbury_solve: rhs size mismatch");

  WoodburyResult result;
  result.x = a0.solve(b);  // y = A₀⁻¹ b

  std::vector<RankOneUpdate> active;
  active.reserve(terms.size());
  for (const RankOneUpdate& t : terms) {
    PPDL_REQUIRE(t.i >= 0 && t.i < n, "woodbury_solve: i out of range");
    PPDL_REQUIRE(t.j < n, "woodbury_solve: j out of range");
    PPDL_REQUIRE(t.j < 0 || t.j != t.i, "woodbury_solve: i == j");
    if (t.coefficient != 0.0) {
      active.push_back(t);
    }
  }
  if (active.empty()) {
    result.ok = true;
    return result;
  }

  // W = A₀⁻¹U, one backsolve pair per active term.
  const auto k = active.size();
  std::vector<std::vector<Real>> w(k);
  std::vector<Real> u(static_cast<std::size_t>(n), 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    const auto iu = static_cast<std::size_t>(active[t].i);
    u[iu] = 1.0;
    if (active[t].j >= 0) {
      u[static_cast<std::size_t>(active[t].j)] = -1.0;
    }
    w[t] = a0.solve(u);
    u[iu] = 0.0;
    if (active[t].j >= 0) {
      u[static_cast<std::size_t>(active[t].j)] = 0.0;
    }
  }

  // Sparse uᵀv for u of term `t`.
  const auto u_dot = [&](std::size_t t, std::span<const Real> v) -> Real {
    Real acc = v[static_cast<std::size_t>(active[t].i)];
    if (active[t].j >= 0) {
      acc -= v[static_cast<std::size_t>(active[t].j)];
    }
    return acc;
  };

  // Capacitance system S = C⁻¹ + UᵀW. Coefficients can be negative (widths
  // shrink), so S is symmetric but not necessarily definite — LDLᵀ without
  // pivoting still handles the quasi-definite cases that arise here and
  // reports breakdown otherwise.
  const Index kk = static_cast<Index>(k);
  DenseMatrix s(kk, kk);
  for (Index r = 0; r < kk; ++r) {
    for (Index c = 0; c < kk; ++c) {
      s(r, c) = u_dot(static_cast<std::size_t>(r),
                      w[static_cast<std::size_t>(c)]);
    }
    s(r, r) += 1.0 / active[static_cast<std::size_t>(r)].coefficient;
  }

  std::vector<Real> rhs(k);
  for (std::size_t t = 0; t < k; ++t) {
    rhs[t] = u_dot(t, result.x);
  }

  std::vector<Real> z;
  try {
    const LdltFactorization ldlt(s);
    z = ldlt.solve(rhs);
  } catch (const ContractViolation&) {
    return result;  // ok stays false: caller falls back to an iterative solve
  }
  if (!std::all_of(z.begin(), z.end(),
                   [](Real v) { return std::isfinite(v); })) {
    return result;
  }

  // x = y − W z.
  for (std::size_t t = 0; t < k; ++t) {
    const Real zt = z[t];
    for (std::size_t i = 0; i < result.x.size(); ++i) {
      result.x[i] -= zt * w[t][i];
    }
  }
  result.ok = true;
  return result;
}

}  // namespace ppdl::linalg
