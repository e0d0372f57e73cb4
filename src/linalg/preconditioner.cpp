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

LevelOrderedIc0 build_level_ordered_ic0(const CsrMatrix& a) {
  const Ic0Factor f = build_ic0_factor(a);
  const Index n = f.n;
  const Index* rp = f.row_ptr.data();
  const Index* ci = f.col_idx.data();
  const Real* lv = f.values.data();
  const auto nu = static_cast<std::size_t>(n);
  const auto off_diagonal = static_cast<std::size_t>(rp[n] - n);
  LevelOrderedIc0 out;
  out.n = n;

  // Each row's level, and how often it occurs as a strictly-lower column
  // (its upper entry count).
  std::vector<Index> level(nu, 0);
  std::vector<Index> upper(nu, 0);
  Index levels = 0;
  for (Index i = 0; i < n; ++i) {
    Index li = 0;
    for (Index k = rp[i]; k < rp[i + 1] - 1; ++k) {
      li = std::max(li, level.data()[ci[k]] + 1);
      ++upper.data()[ci[k]];
    }
    level.data()[i] = li;
    levels = std::max(levels, li + 1);
  }

  // Counting sort of the rows by level, ascending within a level; `pos`
  // is each row's position.
  out.level_ptr.assign(static_cast<std::size_t>(levels) + 1, 0);
  Index* level_ptr = out.level_ptr.data();
  for (Index i = 0; i < n; ++i) {
    ++level_ptr[level.data()[i] + 1];
  }
  for (Index k = 0; k < levels; ++k) {
    level_ptr[k + 1] += level_ptr[k];
  }
  out.row.resize(nu);
  std::vector<Index> pos(std::move(level));
  {
    std::vector<Index> cursor(level_ptr, level_ptr + levels);
    for (Index i = 0; i < n; ++i) {
      const Index p = cursor.data()[pos.data()[i]]++;
      out.row.data()[p] = i;
      pos.data()[i] = p;
    }
  }

  // Pivots and entry counts by position, then offsets.
  out.diag.resize(nu);
  out.lower_ptr.assign(nu + 1, 0);
  out.upper_ptr.assign(nu + 1, 0);
  Index* lower_ptr = out.lower_ptr.data();
  Index* upper_ptr = out.upper_ptr.data();
  for (Index i = 0; i < n; ++i) {
    const Index p = pos.data()[i];
    out.diag.data()[p] = lv[rp[i + 1] - 1];
    lower_ptr[p + 1] = rp[i + 1] - 1 - rp[i];
    upper_ptr[p + 1] = upper.data()[i];
  }
  for (Index p = 0; p < n; ++p) {
    lower_ptr[p + 1] += lower_ptr[p];
    upper_ptr[p + 1] += upper_ptr[p];
  }

  // Lower rows copy as they are; `upper` turns from a count into the
  // row's fill cursor. Upper rows then fill from rows descending, so each
  // lists its entries by descending row.
  out.lower_col.resize(off_diagonal);
  out.lower_val.resize(off_diagonal);
  for (Index i = 0; i < n; ++i) {
    const Index p = pos.data()[i];
    Index w = lower_ptr[p];
    for (Index k = rp[i]; k < rp[i + 1] - 1; ++k, ++w) {
      out.lower_col.data()[w] = ci[k];
      out.lower_val.data()[w] = lv[k];
    }
    upper.data()[i] = upper_ptr[p];
  }
  out.upper_col.resize(off_diagonal);
  out.upper_val.resize(off_diagonal);
  for (Index j = n - 1; j >= 0; --j) {
    for (Index k = rp[j]; k < rp[j + 1] - 1; ++k) {
      const Index at = upper.data()[ci[k]]++;
      out.upper_col.data()[at] = j;
      out.upper_val.data()[at] = lv[k];
    }
  }
  return out;
}

}  // namespace detail

namespace {

// The sweeps over positions [begin, end). Each row performs the natural-order
// solve's operations in their order: the forward gather subtracts L(i, j)·y[j]
// over ascending j, then divides; the backward pull subtracts L(j, i)·z[j]
// over descending j — the order in which the scatter form's rows j > i
// update out[i] — then divides. `r` may alias `out`.
void forward_rows(const detail::LevelOrderedIc0& l, Index begin, Index end,
                  const Real* r, Real* out) {
  const Index* row = l.row.data();
  const Index* ptr = l.lower_ptr.data();
  const Index* col = l.lower_col.data();
  const Real* val = l.lower_val.data();
  const Real* diag = l.diag.data();
  for (Index p = begin; p < end; ++p) {
    const Index i = row[p];
    Real acc = r[i];
    for (Index k = ptr[p]; k < ptr[p + 1]; ++k) {
      acc -= val[k] * out[col[k]];
    }
    out[i] = acc / diag[p];
  }
}

void backward_rows(const detail::LevelOrderedIc0& l, Index begin, Index end,
                   Real* v) {
  const Index* row = l.row.data();
  const Index* ptr = l.upper_ptr.data();
  const Index* col = l.upper_col.data();
  const Real* val = l.upper_val.data();
  const Real* diag = l.diag.data();
  for (Index p = end - 1; p >= begin; --p) {
    const Index i = row[p];
    Real acc = v[i];
    for (Index k = ptr[p]; k < ptr[p + 1]; ++k) {
      acc -= val[k] * v[col[k]];
    }
    v[i] = acc / diag[p];
  }
}

}  // namespace

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a)
    : l_(detail::build_level_ordered_ic0(a)) {}

// One pass over all positions per sweep: ascending positions run the levels
// in order, descending ones run them in reverse.
void Ic0Preconditioner::apply(std::span<const Real> r,
                              std::span<Real> out) const {
  PPDL_REQUIRE(static_cast<Index>(r.size()) == l_.n &&
                   static_cast<Index>(out.size()) == l_.n,
               "IC0 apply: size mismatch");
  forward_rows(l_, 0, l_.n, r.data(), out.data());
  backward_rows(l_, 0, l_.n, out.data());
}

LevelScheduledIc0Preconditioner::LevelScheduledIc0Preconditioner(
    const CsrMatrix& a, bool use_rcm) {
  PPDL_REQUIRE(a.rows() == a.cols(), "IC0 needs a square matrix");
  if (use_rcm && a.rows() > 0) {
    perm_ = rcm_ordering(a);
    l_ = detail::build_level_ordered_ic0(a.permuted_symmetric(perm_));
  } else {
    l_ = detail::build_level_ordered_ic0(a);
  }
  obs::count("precond.ic0_level.builds");
  obs::gauge("precond.ic0_level.levels", static_cast<Real>(level_count()));
}

void LevelScheduledIc0Preconditioner::apply(std::span<const Real> r,
                                            std::span<Real> out) const {
  PPDL_REQUIRE(static_cast<Index>(r.size()) == l_.n &&
                   static_cast<Index>(out.size()) == l_.n,
               "IC0 apply: size mismatch");
  obs::count("precond.ic0_level.applies");
  obs::gauge("precond.ic0_level.levels", static_cast<Real>(level_count()));
  const Index n = l_.n;
  const Real* src = r.data();
  Real* dst = out.data();
  if (!perm_.empty()) {
    // Permuted factor: solve the RCM-ordered system, conjugated by P.
    scratch_.resize(static_cast<std::size_t>(n));
    parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
      for (Index i = begin; i < end; ++i) {
        scratch_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
            r[static_cast<std::size_t>(i)];
      }
    });
    src = scratch_.data();
    dst = scratch_.data();
  }
  // Rows of one level never read each other, so each level's positions
  // split across threads; the row arithmetic is Ic0Preconditioner's.
  const Index levels = level_count();
  for (Index k = 0; k < levels; ++k) {
    const Index lbeg = l_.level_ptr[static_cast<std::size_t>(k)];
    const Index lend = l_.level_ptr[static_cast<std::size_t>(k) + 1];
    parallel::for_range(lend - lbeg, kLevelGrain, [&](Index begin, Index end) {
      forward_rows(l_, lbeg + begin, lbeg + end, src, dst);
    });
  }
  for (Index k = levels - 1; k >= 0; --k) {
    const Index lbeg = l_.level_ptr[static_cast<std::size_t>(k)];
    const Index lend = l_.level_ptr[static_cast<std::size_t>(k) + 1];
    parallel::for_range(lend - lbeg, kLevelGrain, [&](Index begin, Index end) {
      backward_rows(l_, lbeg + begin, lbeg + end, dst);
    });
  }
  if (!perm_.empty()) {
    parallel::for_range(n, kVecGrain, [&](Index begin, Index end) {
      for (Index i = begin; i < end; ++i) {
        out[static_cast<std::size_t>(i)] =
            scratch_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
      }
    });
  }
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
