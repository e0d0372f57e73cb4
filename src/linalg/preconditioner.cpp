#include "linalg/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {

namespace {

// Grain for element-wise vector loops (matches the CG vector kernels).
constexpr Index kVecGrain = 8192;
// Grain for per-row work inside one dependency level. Grain only affects
// scheduling here — level solves have no reductions, each row writes only
// its own slot — so this is not part of the numeric contract.
constexpr Index kLevelGrain = 256;

}  // namespace

void IdentityPreconditioner::apply(std::span<const Real> r,
                                   std::span<Real> out) const {
  PPDL_REQUIRE(r.size() == out.size(), "identity precond: size mismatch");
  std::copy(r.begin(), r.end(), out.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  PPDL_REQUIRE(a.rows() == a.cols(), "Jacobi needs a square matrix");
  inv_diag_ = a.diagonal();
  for (Real& d : inv_diag_) {
    if (d == 0.0) {
      throw PreconditionerError(
          "Jacobi preconditioner: zero diagonal entry (matrix has no "
          "invertible diagonal)");
    }
    d = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(std::span<const Real> r,
                                 std::span<Real> out) const {
  PPDL_REQUIRE(r.size() == out.size() && r.size() == inv_diag_.size(),
               "Jacobi apply: size mismatch");
  parallel::for_range(static_cast<Index>(r.size()), kVecGrain,
                      [&](Index begin, Index end) {
                        for (Index i = begin; i < end; ++i) {
                          const auto iu = static_cast<std::size_t>(i);
                          out[iu] = r[iu] * inv_diag_[iu];
                        }
                      });
}

namespace detail {

Ic0Factor build_ic0_factor(const CsrMatrix& a) {
  PPDL_REQUIRE(a.rows() == a.cols(), "IC0 needs a square matrix");
  Ic0Factor f;
  f.n = a.rows();

  // Extract the lower triangle (including diagonal) of A into L's pattern.
  f.row_ptr.assign(static_cast<std::size_t>(f.n) + 1, 0);
  const auto a_rp = a.row_ptr();
  const auto a_ci = a.col_idx();
  const auto a_vl = a.values();
  for (Index r = 0; r < f.n; ++r) {
    for (Index k = a_rp[static_cast<std::size_t>(r)];
         k < a_rp[static_cast<std::size_t>(r) + 1]; ++k) {
      if (a_ci[static_cast<std::size_t>(k)] <= r) {
        ++f.row_ptr[static_cast<std::size_t>(r) + 1];
      }
    }
  }
  for (Index r = 0; r < f.n; ++r) {
    f.row_ptr[static_cast<std::size_t>(r) + 1] +=
        f.row_ptr[static_cast<std::size_t>(r)];
  }
  f.col_idx.resize(static_cast<std::size_t>(f.row_ptr.back()));
  f.values.resize(static_cast<std::size_t>(f.row_ptr.back()));
  {
    std::vector<Index> cursor(f.row_ptr.begin(), f.row_ptr.end() - 1);
    for (Index r = 0; r < f.n; ++r) {
      for (Index k = a_rp[static_cast<std::size_t>(r)];
           k < a_rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const Index c = a_ci[static_cast<std::size_t>(k)];
        if (c <= r) {
          const auto pos =
              static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++);
          f.col_idx[pos] = c;
          f.values[pos] = a_vl[static_cast<std::size_t>(k)];
        }
      }
    }
  }
  // CSR rows are already sorted by column, so the diagonal is last in a row.

  // Every row must carry its diagonal — a structurally missing one (empty
  // row, or a zero diagonal dropped from the pattern) has no pivot to shift
  // and previously indexed out of bounds in the shift loop below.
  for (Index r = 0; r < f.n; ++r) {
    const Index beg = f.row_ptr[static_cast<std::size_t>(r)];
    const Index end = f.row_ptr[static_cast<std::size_t>(r) + 1];
    if (beg == end || f.col_idx[static_cast<std::size_t>(end - 1)] != r) {
      throw PreconditionerError(
          "IC0 factorization: row " + std::to_string(r) +
          " has no diagonal entry (matrix is structurally singular)");
    }
  }

  // IC(0): for each row i, update against all previous rows present in the
  // pattern, then take the square root of the diagonal. Diagonal shift on
  // breakdown.
  Real shift = 0.0;
  constexpr int kMaxAttempts = 6;
  std::vector<Real> original(f.values);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    bool ok = true;
    f.values = original;
    if (shift > 0.0) {
      for (Index r = 0; r < f.n && ok; ++r) {
        const auto diag_pos = static_cast<std::size_t>(
            f.row_ptr[static_cast<std::size_t>(r) + 1] - 1);
        f.values[diag_pos] += shift * std::abs(f.values[diag_pos]);
      }
    }
    for (Index i = 0; i < f.n && ok; ++i) {
      const Index ibeg = f.row_ptr[static_cast<std::size_t>(i)];
      const Index iend = f.row_ptr[static_cast<std::size_t>(i) + 1];
      for (Index ki = ibeg; ki < iend; ++ki) {
        const Index j = f.col_idx[static_cast<std::size_t>(ki)];
        Real sum = f.values[static_cast<std::size_t>(ki)];
        // sum -= Σ_k<j L(i,k) L(j,k): merge-walk rows i and j.
        Index pi = ibeg;
        Index pj = f.row_ptr[static_cast<std::size_t>(j)];
        const Index pj_end = f.row_ptr[static_cast<std::size_t>(j) + 1];
        while (pi < ki && pj < pj_end) {
          const Index ci = f.col_idx[static_cast<std::size_t>(pi)];
          const Index cj = f.col_idx[static_cast<std::size_t>(pj)];
          if (cj >= j) {
            break;
          }
          if (ci == cj) {
            sum -= f.values[static_cast<std::size_t>(pi)] *
                   f.values[static_cast<std::size_t>(pj)];
            ++pi;
            ++pj;
          } else if (ci < cj) {
            ++pi;
          } else {
            ++pj;
          }
        }
        if (j == i) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          f.values[static_cast<std::size_t>(ki)] = std::sqrt(sum);
        } else {
          const auto j_diag = static_cast<std::size_t>(
              f.row_ptr[static_cast<std::size_t>(j) + 1] - 1);
          f.values[static_cast<std::size_t>(ki)] = sum / f.values[j_diag];
        }
      }
    }
    if (ok) {
      return f;
    }
    shift = (shift == 0.0) ? 1e-3 : shift * 10.0;
  }
  throw PreconditionerError(
      "IC0 factorization failed even with diagonal shifting");
}

}  // namespace detail

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a)
    : l_(detail::build_ic0_factor(a)) {}

// The serial IC0 apply: the reference implementation the level-scheduled
// variant must match bit-for-bit (see LevelScheduledIc0Preconditioner).
//
// Both sweeps are one division chain: on mesh orderings nearly every row
// has an (i, i−1) entry, so row i waits on the row just solved. That term
// is carried in a register instead of being stored to `out` and read back,
// which takes a store-to-load round trip off every link of the chain. The
// arithmetic is unchanged, operation for operation:
//   * forward: (i, i−1) is the row's last off-diagonal (columns ascend), so
//     subtracting it after the others is the stored order;
//   * backward: row i's scatter is the last update out[i−1] receives before
//     row i−1 divides, so subtracting the carried product there is the
//     stored order too.
// A row without an (i, i−1) entry carries nothing: no 0·z term is formed,
// which would turn an infinite z into NaN.
void Ic0Preconditioner::apply(std::span<const Real> r,
                              std::span<Real> out) const {
  PPDL_REQUIRE(static_cast<Index>(r.size()) == l_.n &&
                   static_cast<Index>(out.size()) == l_.n,
               "IC0 apply: size mismatch");
  const Index* rp = l_.row_ptr.data();
  const Index* ci = l_.col_idx.data();
  const Real* lv = l_.values.data();
  // Forward solve L y = r; `prev` holds y[i−1].
  Real prev = 0.0;
  for (Index i = 0; i < l_.n; ++i) {
    Real acc = r[static_cast<std::size_t>(i)];
    const Index beg = rp[i];
    const Index diag = rp[i + 1] - 1;
    const bool carried = diag > beg && ci[diag - 1] == i - 1;
    const Index stop = carried ? diag - 1 : diag;
    for (Index k = beg; k < stop; ++k) {
      acc -= lv[k] * out[static_cast<std::size_t>(ci[k])];
    }
    if (carried) {
      acc -= lv[diag - 1] * prev;
    }
    prev = acc / lv[diag];
    out[static_cast<std::size_t>(i)] = prev;
  }
  // Backward solve Lᵀ z = y (in place on out, scatter form); `carry` holds
  // row i+1's pending update L(i+1, i)·z[i+1] to out[i].
  Real carry = 0.0;
  bool carrying = false;
  for (Index i = l_.n - 1; i >= 0; --i) {
    const Index beg = rp[i];
    const Index diag = rp[i + 1] - 1;
    Real yi = out[static_cast<std::size_t>(i)];
    if (carrying) {
      yi -= carry;
    }
    const Real zi = yi / lv[diag];
    out[static_cast<std::size_t>(i)] = zi;
    carrying = diag > beg && ci[diag - 1] == i - 1;
    const Index stop = carrying ? diag - 1 : diag;
    for (Index k = beg; k < stop; ++k) {
      out[static_cast<std::size_t>(ci[k])] -= lv[k] * zi;
    }
    if (carrying) {
      carry = lv[diag - 1] * zi;
    }
  }
}

namespace {

// Groups rows into dependency levels given level[i] per row. Returns
// (level_ptr, rows): rows[level_ptr[k]..level_ptr[k+1]) is level k, row
// indices ascending within a level. Pure in the factor structure — never
// depends on thread count.
void group_levels(const std::vector<Index>& level, Index n,
                  std::vector<Index>* level_ptr, std::vector<Index>* rows) {
  if (n == 0) {
    level_ptr->assign(1, 0);
    rows->clear();
    return;
  }
  Index max_level = 0;
  for (Index i = 0; i < n; ++i) {
    max_level = std::max(max_level, level[static_cast<std::size_t>(i)]);
  }
  level_ptr->assign(static_cast<std::size_t>(max_level) + 2, 0);
  for (Index i = 0; i < n; ++i) {
    ++(*level_ptr)[static_cast<std::size_t>(level[static_cast<std::size_t>(i)]) +
                   1];
  }
  for (std::size_t k = 1; k < level_ptr->size(); ++k) {
    (*level_ptr)[k] += (*level_ptr)[k - 1];
  }
  rows->resize(static_cast<std::size_t>(n));
  std::vector<Index> cursor(level_ptr->begin(), level_ptr->end() - 1);
  for (Index i = 0; i < n; ++i) {
    const auto lv = static_cast<std::size_t>(level[static_cast<std::size_t>(i)]);
    (*rows)[static_cast<std::size_t>(cursor[lv]++)] = i;
  }
}

}  // namespace

LevelScheduledIc0Preconditioner::LevelScheduledIc0Preconditioner(
    const CsrMatrix& a, bool use_rcm) {
  PPDL_REQUIRE(a.rows() == a.cols(), "IC0 needs a square matrix");
  const Index n = a.rows();
  if (use_rcm && n > 0) {
    perm_ = rcm_ordering(a);
    l_ = detail::build_ic0_factor(a.permuted_symmetric(perm_));
  } else {
    l_ = detail::build_ic0_factor(a);
  }

  // Lᵀ view of the strictly-lower entries for the backward pull solve.
  // Filling row-descending gives each column its entries by DESCENDING row
  // index — the exact order the serial scatter solve subtracts them in.
  t_row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index i = 0; i < n; ++i) {
    const Index beg = l_.row_ptr[static_cast<std::size_t>(i)];
    const Index end = l_.row_ptr[static_cast<std::size_t>(i) + 1];
    for (Index k = beg; k < end - 1; ++k) {
      ++t_row_ptr_[static_cast<std::size_t>(
                       l_.col_idx[static_cast<std::size_t>(k)]) +
                   1];
    }
  }
  for (Index c = 0; c < n; ++c) {
    t_row_ptr_[static_cast<std::size_t>(c) + 1] +=
        t_row_ptr_[static_cast<std::size_t>(c)];
  }
  t_col_idx_.resize(static_cast<std::size_t>(t_row_ptr_.back()));
  t_values_.resize(static_cast<std::size_t>(t_row_ptr_.back()));
  {
    std::vector<Index> cursor(t_row_ptr_.begin(), t_row_ptr_.end() - 1);
    for (Index i = n - 1; i >= 0; --i) {
      const Index beg = l_.row_ptr[static_cast<std::size_t>(i)];
      const Index end = l_.row_ptr[static_cast<std::size_t>(i) + 1];
      for (Index k = beg; k < end - 1; ++k) {
        const auto c = static_cast<std::size_t>(
            l_.col_idx[static_cast<std::size_t>(k)]);
        const auto pos = static_cast<std::size_t>(cursor[c]++);
        t_col_idx_[pos] = i;
        t_values_[pos] = l_.values[static_cast<std::size_t>(k)];
      }
    }
  }

  // Dependency levels. Forward: row i reads out[j] for each strictly-lower
  // column j in its L row. Backward: row i reads z[j] for each j > i with
  // L(j, i) ≠ 0, i.e. its Lᵀ row.
  std::vector<Index> level(static_cast<std::size_t>(n), 0);
  for (Index i = 0; i < n; ++i) {
    const Index beg = l_.row_ptr[static_cast<std::size_t>(i)];
    const Index end = l_.row_ptr[static_cast<std::size_t>(i) + 1];
    Index lv = 0;
    for (Index k = beg; k < end - 1; ++k) {
      const auto j =
          static_cast<std::size_t>(l_.col_idx[static_cast<std::size_t>(k)]);
      lv = std::max(lv, level[j] + 1);
    }
    level[static_cast<std::size_t>(i)] = lv;
  }
  group_levels(level, n, &fwd_level_ptr_, &fwd_rows_);

  std::fill(level.begin(), level.end(), Index{0});
  for (Index i = n - 1; i >= 0; --i) {
    const Index beg = t_row_ptr_[static_cast<std::size_t>(i)];
    const Index end = t_row_ptr_[static_cast<std::size_t>(i) + 1];
    Index lv = 0;
    for (Index k = beg; k < end; ++k) {
      const auto j =
          static_cast<std::size_t>(t_col_idx_[static_cast<std::size_t>(k)]);
      lv = std::max(lv, level[j] + 1);
    }
    level[static_cast<std::size_t>(i)] = lv;
  }
  group_levels(level, n, &bwd_level_ptr_, &bwd_rows_);

  obs::count("precond.ic0_level.builds");
  obs::gauge("precond.ic0_level.levels_forward",
             static_cast<Real>(forward_level_count()));
  obs::gauge("precond.ic0_level.levels_backward",
             static_cast<Real>(backward_level_count()));
}

void LevelScheduledIc0Preconditioner::solve_in_place(std::span<Real> v) const {
  // Forward solve L y = r: within a level every row is independent; the
  // per-row accumulation is the serial forward loop verbatim, so the result
  // is bit-identical to Ic0Preconditioner::apply for any thread count.
  const auto fwd_levels = static_cast<std::size_t>(forward_level_count());
  for (std::size_t lv = 0; lv < fwd_levels; ++lv) {
    const Index lbeg = fwd_level_ptr_[lv];
    const Index lend = fwd_level_ptr_[lv + 1];
    parallel::for_range(lend - lbeg, kLevelGrain, [&](Index begin, Index end) {
      for (Index p = begin; p < end; ++p) {
        const auto i = static_cast<std::size_t>(
            fwd_rows_[static_cast<std::size_t>(lbeg + p)]);
        Real acc = v[i];
        const Index beg = l_.row_ptr[i];
        const Index rend = l_.row_ptr[i + 1];
        for (Index k = beg; k < rend - 1; ++k) {
          acc -= l_.values[static_cast<std::size_t>(k)] *
                 v[static_cast<std::size_t>(
                     l_.col_idx[static_cast<std::size_t>(k)])];
        }
        v[i] = acc / l_.values[static_cast<std::size_t>(rend - 1)];
      }
    });
  }
  // Backward solve Lᵀ z = y, pull form over the Lᵀ view. The serial scatter
  // solve leaves out[i] = y[i] − Σ_{j>i, desc} L(j,i)·z[j] at the moment row
  // i divides; the Lᵀ rows store exactly those (j, L(j,i)) pairs in the same
  // descending-j order, so each row replays the identical subtraction
  // sequence — bit-identical output again.
  const auto bwd_levels = static_cast<std::size_t>(backward_level_count());
  for (std::size_t lv = 0; lv < bwd_levels; ++lv) {
    const Index lbeg = bwd_level_ptr_[lv];
    const Index lend = bwd_level_ptr_[lv + 1];
    parallel::for_range(lend - lbeg, kLevelGrain, [&](Index begin, Index end) {
      for (Index p = begin; p < end; ++p) {
        const auto i = static_cast<std::size_t>(
            bwd_rows_[static_cast<std::size_t>(lbeg + p)]);
        Real acc = v[i];
        const Index beg = t_row_ptr_[i];
        const Index rend = t_row_ptr_[i + 1];
        for (Index k = beg; k < rend; ++k) {
          acc -= t_values_[static_cast<std::size_t>(k)] *
                 v[static_cast<std::size_t>(
                     t_col_idx_[static_cast<std::size_t>(k)])];
        }
        const auto diag =
            static_cast<std::size_t>(l_.row_ptr[i + 1] - 1);
        v[i] = acc / l_.values[diag];
      }
    });
  }
}

void LevelScheduledIc0Preconditioner::apply(std::span<const Real> r,
                                            std::span<Real> out) const {
  PPDL_REQUIRE(static_cast<Index>(r.size()) == l_.n &&
                   static_cast<Index>(out.size()) == l_.n,
               "IC0 apply: size mismatch");
  obs::count("precond.ic0_level.applies");
  obs::gauge("precond.ic0_level.levels_forward",
             static_cast<Real>(forward_level_count()));
  obs::gauge("precond.ic0_level.levels_backward",
             static_cast<Real>(backward_level_count()));
  const Index n = l_.n;
  if (perm_.empty()) {
    std::copy(r.begin(), r.end(), out.begin());
    solve_in_place(out);
    return;
  }
  // Permuted factor: solve the RCM-ordered system, conjugated by P.
  scratch_.resize(static_cast<std::size_t>(n));
  parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      scratch_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          r[static_cast<std::size_t>(i)];
    }
  });
  solve_in_place(scratch_);
  parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      out[static_cast<std::size_t>(i)] =
          scratch_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    }
  });
}

ChebyshevPreconditioner::ChebyshevPreconditioner(const CsrMatrix& a,
                                                 const ChebyshevOptions& options)
    : a_(a), degree_(options.degree) {
  PPDL_REQUIRE(a.rows() == a.cols(), "Chebyshev needs a square matrix");
  PPDL_REQUIRE(options.degree >= 1, "Chebyshev: degree must be >= 1");
  PPDL_REQUIRE(options.eig_ratio > 1.0, "Chebyshev: eig_ratio must be > 1");
  PPDL_REQUIRE(options.power_iterations >= 0,
               "Chebyshev: power_iterations must be >= 0");
  const Index n = a.rows();
  if (n == 0) {
    return;  // apply() is a no-op on the empty system
  }

  // Gershgorin row-sum bound: λmax ≤ max_i Σ_j |a_ij| — a guaranteed upper
  // bound for symmetric A. max-combine over chunk partials is exact and
  // associative, so the reduction is bit-stable for any thread count.
  const auto rp = a.row_ptr();
  const auto vl = a.values();
  const Real gershgorin = parallel::reduce<Real>(
      n, parallel::kDefaultGrain, 0.0,
      [&](Index begin, Index end) {
        Real local = 0.0;
        for (Index i = begin; i < end; ++i) {
          Real row_sum = 0.0;
          for (Index k = rp[static_cast<std::size_t>(i)];
               k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
            row_sum += std::abs(vl[static_cast<std::size_t>(k)]);
          }
          local = std::max(local, row_sum);
        }
        return local;
      },
      [](Real x, Real y) { return std::max(x, y); });

  // Power iteration tightens the bound (deterministic all-ones start, fixed
  // iteration count). The estimate approaches λmax from below, so it gets a
  // 1.2× margin and is capped by the Gershgorin bound from above. If the
  // interval still misses the top of the spectrum, PCG sees an indefinite
  // operator as a breakdown and the robust ladder escalates — never UB.
  Real power = 0.0;
  if (options.power_iterations > 0) {
    std::vector<Real> v(static_cast<std::size_t>(n),
                        1.0 / std::sqrt(static_cast<Real>(n)));
    std::vector<Real> w(static_cast<std::size_t>(n), 0.0);
    for (Index it = 0; it < options.power_iterations; ++it) {
      a.multiply(v, w);
      const Real nw = norm2(w);
      if (!(nw > 0.0) || !std::isfinite(nw)) {
        break;  // start vector hit the null space (e.g. a pure Laplacian)
      }
      power = nw;
      const Real inv = 1.0 / nw;
      parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i) {
          v[static_cast<std::size_t>(i)] =
              w[static_cast<std::size_t>(i)] * inv;
        }
      });
    }
  }

  lambda_max_ = gershgorin;
  if (power > 0.0) {
    lambda_max_ = std::min(gershgorin, 1.2 * power);
  }
  if (!std::isfinite(lambda_max_) || lambda_max_ <= 0.0) {
    throw PreconditionerError(
        "Chebyshev preconditioner: no usable spectral bound (lambda_max "
        "estimate is zero or non-finite)");
  }
  lambda_min_ = lambda_max_ / options.eig_ratio;

  obs::count("precond.chebyshev.builds");
  obs::gauge("precond.chebyshev.degree", static_cast<Real>(degree_));
}

// One apply = `degree` steps of the Chebyshev semi-iteration for A z = r,
// z₀ = 0 (Saad, "Iterative Methods for Sparse Linear Systems", Alg. 12.1).
// The iterate is a fixed polynomial p(A)·r with p > 0 on (0, λmax], so the
// operator is SPD and constant across applies — exactly what PCG requires.
void ChebyshevPreconditioner::apply(std::span<const Real> r,
                                    std::span<Real> out) const {
  const Index n = a_.rows();
  PPDL_REQUIRE(static_cast<Index>(r.size()) == n &&
                   static_cast<Index>(out.size()) == n,
               "Chebyshev apply: size mismatch");
  obs::count("precond.chebyshev.applies");
  obs::gauge("precond.chebyshev.degree", static_cast<Real>(degree_));
  if (n == 0) {
    return;
  }
  const Real theta = 0.5 * (lambda_max_ + lambda_min_);
  const Real delta = 0.5 * (lambda_max_ - lambda_min_);
  const Real sigma1 = theta / delta;
  const Real inv_theta = 1.0 / theta;

  d_.resize(static_cast<std::size_t>(n));
  res_.resize(static_cast<std::size_t>(n));
  ad_.resize(static_cast<std::size_t>(n));
  parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      d_[iu] = r[iu] * inv_theta;
      out[iu] = d_[iu];
      res_[iu] = r[iu];
    }
  });

  Real rho_prev = 1.0 / sigma1;
  for (Index step = 1; step < degree_; ++step) {
    a_.multiply(d_, ad_);
    const Real rho = 1.0 / (2.0 * sigma1 - rho_prev);
    const Real c_d = rho * rho_prev;
    const Real c_res = 2.0 * rho / delta;
    parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
      for (Index i = begin; i < end; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        res_[iu] -= ad_[iu];
        d_[iu] = c_d * d_[iu] + c_res * res_[iu];
        out[iu] += d_[iu];
      }
    });
    rho_prev = rho;
  }
}

const char* to_string(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::kNone:
      return "none";
    case PreconditionerKind::kJacobi:
      return "jacobi";
    case PreconditionerKind::kIc0:
      return "ic0";
    case PreconditionerKind::kIc0Level:
      return "ic0-level";
    case PreconditionerKind::kChebyshev:
      return "chebyshev";
  }
  PPDL_ENSURE(false, "unknown preconditioner kind");
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a) {
  switch (kind) {
    case PreconditionerKind::kNone:
      return std::make_unique<IdentityPreconditioner>();
    case PreconditionerKind::kJacobi:
      return std::make_unique<JacobiPreconditioner>(a);
    case PreconditionerKind::kIc0:
      return std::make_unique<Ic0Preconditioner>(a);
    case PreconditionerKind::kIc0Level:
      return std::make_unique<LevelScheduledIc0Preconditioner>(a);
    case PreconditionerKind::kChebyshev:
      return std::make_unique<ChebyshevPreconditioner>(a);
  }
  PPDL_ENSURE(false, "unknown preconditioner kind");
}

PreconditionerKind parse_preconditioner(const std::string& name) {
  if (name == "none") {
    return PreconditionerKind::kNone;
  }
  if (name == "jacobi") {
    return PreconditionerKind::kJacobi;
  }
  if (name == "ic0") {
    return PreconditionerKind::kIc0;
  }
  if (name == "ic0-level") {
    return PreconditionerKind::kIc0Level;
  }
  if (name == "chebyshev") {
    return PreconditionerKind::kChebyshev;
  }
  PPDL_REQUIRE(false, "unknown preconditioner name: " + name);
  return PreconditionerKind::kNone;  // unreachable
}

}  // namespace ppdl::linalg
