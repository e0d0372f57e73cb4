// Bit-identity of the pooled linalg kernels. The matrix has at least twice
// kSerialBelowElements rows (and so more than kSerialBelowRows), so at
// PPDL_THREADS > 1 SpMV, dot, norm2 and CG's vector passes hand their
// chunks to the pool; smaller problems never reach it. conjugate_gradient's
// fused passes (SpMV with dot(p, Ap), both axpys with norm2(r)) are checked
// byte for byte against the unfused loop at the chunk-boundary sizes too.
// ctest runs this suite at PPDL_THREADS 1, 2 and 8
// (linalg_pooled_bitwise_t*, label determinism), so the sanitizer jobs
// cover the pooled path too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/parallel.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"
#include "support/random_grid.hpp"

namespace ppdl::linalg {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

const CsrMatrix& pooled_matrix() {
  // 290 × 290 = 84,100 rows: above 2 × kSerialBelowElements.
  static const CsrMatrix a =
      testsupport::random_grid_matrix({290, 290, 2718, 10.0, 0.3});
  return a;
}

void expect_bitwise_equal(const std::vector<Real>& got,
                          const std::vector<Real>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(LinalgPooledBitwise, SpmvDotNorm2MatchSerialReferences) {
  const CsrMatrix& a = pooled_matrix();
  const Index n = a.rows();
  ASSERT_GE(n, 2 * kSerialBelowElements);
  const std::vector<Real> x = testsupport::random_vector(n, 31);
  const std::vector<Real> y = testsupport::random_vector(n, 37);

  // References: each row's own serial sum; the dot as 4096-element chunk
  // partials added in chunk order (the reduction grain fixes association).
  std::vector<Real> ax_ref(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    Real acc = 0.0;
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      acc += a.values()[ku] *
             x[static_cast<std::size_t>(a.col_idx()[ku])];
    }
    ax_ref[static_cast<std::size_t>(r)] = acc;
  }
  const auto chunked_dot = [n](const std::vector<Real>& u,
                               const std::vector<Real>& v) {
    constexpr Index kGrain = 4096;
    Real total = 0.0;
    for (Index begin = 0; begin < n; begin += kGrain) {
      Real partial = 0.0;
      for (Index i = begin; i < std::min(n, begin + kGrain); ++i) {
        partial += u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
      }
      total += partial;
    }
    return total;
  };
  const Real dot_ref = chunked_dot(x, y);
  const Real norm_ref = std::sqrt(chunked_dot(x, x));

  // The configured thread count (PPDL_THREADS): pooled when it is above 1.
  std::vector<Real> ax(static_cast<std::size_t>(n));
  a.multiply(x, ax);
  expect_bitwise_equal(ax, ax_ref);
  EXPECT_EQ(dot(x, y), dot_ref);
  EXPECT_EQ(norm2(x), norm_ref);
  if (parallel::default_num_threads() > 1) {
    EXPECT_GT(parallel::ThreadPool::instance().worker_count(), 0)
        << "the kernels never reached the pool";
  }
}

TEST(LinalgPooledBitwise, Ic0PcgMatchesSingleThread) {
  ThreadGuard guard;
  const CsrMatrix& a = pooled_matrix();
  const std::vector<Real> b = testsupport::random_vector(a.rows(), 41);
  CgOptions opts;
  opts.preconditioner = PreconditionerKind::kIc0;
  opts.tolerance = 1e-8;

  parallel::set_num_threads(1);
  const CgResult serial = conjugate_gradient(a, b, opts);
  parallel::set_num_threads(0);  // back to PPDL_THREADS
  const CgResult pooled = conjugate_gradient(a, b, opts);

  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(pooled.status, serial.status);
  EXPECT_EQ(pooled.iterations, serial.iterations);
  EXPECT_EQ(pooled.relative_residual, serial.relative_residual);
  expect_bitwise_equal(pooled.x, serial.x);
}

// --- conjugate_gradient against the unfused loop ----------------------------

/// conjugate_gradient's loop before its passes were fused: SpMV, dot(p, Ap),
/// two axpys and norm2(r) as separate kernels.
CgResult unfused_cg(const CsrMatrix& a, const std::vector<Real>& b,
                    const Preconditioner& precond, const CgOptions& options,
                    std::optional<std::vector<Real>> x0) {
  const auto axpy = [](Real alpha, const std::vector<Real>& x,
                       std::vector<Real>& y) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] += alpha * x[i];
    }
  };
  const Index n = a.rows();
  const Index max_iter =
      options.max_iterations > 0 ? options.max_iterations : 2 * n;
  CgResult result;
  result.x = x0.has_value() ? std::move(*x0)
                            : std::vector<Real>(static_cast<std::size_t>(n));
  const Real bnorm = norm2(b);
  if (bnorm == 0.0) {
    result.x.assign(static_cast<std::size_t>(n), 0.0);
    result.converged = true;
    result.status = CgStatus::kConverged;
    return result;
  }
  std::vector<Real> r = a.multiply(result.x);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
  }
  std::vector<Real> z(r.size());
  precond.apply(r, z);
  std::vector<Real> p = z;
  std::vector<Real> ap(r.size());
  Real rz = dot(r, z);
  Real rel = norm2(r) / bnorm;
  result.relative_residual = rel;
  if (!std::isfinite(rel)) {
    result.status = CgStatus::kNonFinite;
    return result;
  }
  if (rel <= options.tolerance) {
    result.converged = true;
    result.status = CgStatus::kConverged;
    return result;
  }
  Real best_rel = rel;
  Index since_improvement = 0;
  for (Index it = 1; it <= max_iter; ++it) {
    a.multiply(p, ap);
    const Real pap = dot(p, ap);
    if (!std::isfinite(pap)) {
      result.status = CgStatus::kNonFinite;
      return result;
    }
    if (pap <= 0.0) {
      result.status = CgStatus::kBreakdown;
      return result;
    }
    const Real alpha = rz / pap;
    axpy(alpha, p, result.x);
    axpy(-alpha, ap, r);
    rel = norm2(r) / bnorm;
    result.iterations = it;
    result.relative_residual = rel;
    if (!std::isfinite(rel)) {
      result.status = CgStatus::kNonFinite;
      return result;
    }
    if (rel <= options.tolerance) {
      result.converged = true;
      result.status = CgStatus::kConverged;
      return result;
    }
    if (options.stagnation_window > 0) {
      if (rel < best_rel * (1.0 - options.stagnation_rtol)) {
        best_rel = rel;
        since_improvement = 0;
      } else if (++since_improvement >= options.stagnation_window) {
        result.status = CgStatus::kStagnated;
        return result;
      }
    }
    precond.apply(r, z);
    const Real rz_next = dot(r, z);
    const Real beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = z[i] + beta * p[i];
    }
  }
  result.status = CgStatus::kMaxIterations;
  return result;
}

bool same_bytes(Real a, Real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// conjugate_gradient with `precond` shared, against unfused_cg: status,
/// iterations and the bytes of relative_residual and x.
void expect_cg_bitwise(const CsrMatrix& a, const std::vector<Real>& b,
                       const Preconditioner& precond,
                       std::optional<std::vector<Real>> x0,
                       Index max_iterations = 25) {
  CgOptions opts;
  opts.max_iterations = max_iterations;
  opts.shared_preconditioner = &precond;
  const CgResult want = unfused_cg(a, b, precond, opts, x0);
  const CgResult got = conjugate_gradient(a, b, opts, std::move(x0));
  SCOPED_TRACE(testing::Message() << "n=" << a.rows() << " precond="
                                  << precond.name());
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_TRUE(same_bytes(got.relative_residual, want.relative_residual))
      << got.relative_residual << " vs " << want.relative_residual;
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_TRUE(same_bytes(got.x[i], want.x[i]))
        << "x[" << i << "]: " << got.x[i] << " vs " << want.x[i];
  }
}

CsrMatrix diagonal_matrix(const std::vector<Real>& d) {
  CooMatrix coo(static_cast<Index>(d.size()), static_cast<Index>(d.size()));
  for (std::size_t i = 0; i < d.size(); ++i) {
    coo.add(static_cast<Index>(i), static_cast<Index>(i), d[i]);
  }
  return CsrMatrix::from_coo(coo);
}

TEST(LinalgPooledBitwise, FusedCgMatchesUnfusedLoop) {
  // One row, one and just over one reduction chunk, and a size at which
  // both fused passes reach the pool.
  using testsupport::random_grid_matrix;
  std::vector<CsrMatrix> matrices;
  matrices.push_back(diagonal_matrix({4.0}));
  matrices.push_back(random_grid_matrix({64, 64, 12, 100.0, 0.05}));
  matrices.push_back(random_grid_matrix({17, 241, 13, 100.0, 0.05}));
  matrices.push_back(random_grid_matrix({203, 203, 14, 10.0, 0.3}));
  ASSERT_EQ(matrices[1].rows(), kReduceGrain);
  ASSERT_EQ(matrices[2].rows(), kReduceGrain + 1);
  ASSERT_GE(matrices[3].rows(), kSerialBelowElements);

  for (const CsrMatrix& m : matrices) {
    const CsrMatrix* const a = &m;
    const Index n = a->rows();
    const std::vector<Real> b = testsupport::random_vector(n, 51);
    const SparseCholesky frozen(*a, nd_ordering(*a), 1e-2);
    const CholeskyPreconditioner cholesky(frozen);
    std::vector<std::unique_ptr<Preconditioner>> owned;
    for (const PreconditionerKind kind :
         {PreconditionerKind::kNone, PreconditionerKind::kJacobi,
          PreconditionerKind::kIc0}) {
      owned.push_back(make_preconditioner(kind, *a));
    }
    std::vector<const Preconditioner*> preconds;
    for (const auto& p : owned) {
      preconds.push_back(p.get());
    }
    preconds.push_back(&cholesky);
    for (const Preconditioner* precond : preconds) {
      expect_cg_bitwise(*a, b, *precond, std::nullopt);
      expect_cg_bitwise(*a, b, *precond, testsupport::random_vector(n, 52));
    }
  }
}

TEST(LinalgPooledBitwise, FusedCgBreakdownAndNonFinite) {
  const IdentityPreconditioner none;
  CgOptions opts;
  opts.shared_preconditioner = &none;
  // Singular, with as many zero pivots as ones: α = 2 and β = 1 exactly, so
  // the second direction lies in the null space and pᵀAp = 0.
  std::vector<Real> d(2 * kReduceGrain + 2, 1.0);
  for (std::size_t i = 1; i < d.size(); i += 2) {
    d[i] = 0.0;
  }
  const CsrMatrix singular = diagonal_matrix(d);
  const std::vector<Real> ones(d.size(), 1.0);
  const CgResult broke = conjugate_gradient(singular, ones, opts);
  EXPECT_EQ(broke.status, CgStatus::kBreakdown);
  expect_cg_bitwise(singular, ones, none, std::nullopt);

  // An infinite right-hand side, and pᵀAp overflowing inside the loop.
  const CsrMatrix& a = pooled_matrix();
  std::vector<Real> b = testsupport::random_vector(a.rows(), 53);
  b[static_cast<std::size_t>(a.rows() / 2)] =
      std::numeric_limits<Real>::infinity();
  expect_cg_bitwise(a, b, none, std::nullopt);
  const std::vector<Real> big(kReduceGrain + 1, 1e308);
  const CsrMatrix huge = diagonal_matrix(big);
  const std::vector<Real> unit(big.size(), 1.0);
  const CgResult overflow = conjugate_gradient(huge, unit, opts);
  EXPECT_EQ(overflow.status, CgStatus::kNonFinite);
  EXPECT_EQ(overflow.iterations, 0);
  expect_cg_bitwise(huge, unit, none, std::nullopt);
}

}  // namespace
}  // namespace ppdl::linalg
