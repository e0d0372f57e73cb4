// Degenerate-input coverage for every PreconditionerKind: tiny, trivial,
// disconnected, singular, and hostile matrices must either solve or fail
// with a typed error — never UB (this suite also runs under the asan/ubsan
// presets) and never a bare std exception.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "linalg/cg.hpp"
#include "linalg/preconditioner.hpp"
#include "robust/solve.hpp"

namespace ppdl::linalg {
namespace {

constexpr PreconditionerKind kAllKinds[] = {
    PreconditionerKind::kNone, PreconditionerKind::kJacobi,
    PreconditionerKind::kIc0, PreconditionerKind::kIc0Level,
    PreconditionerKind::kChebyshev};

CsrMatrix diagonal_matrix(const std::vector<Real>& d) {
  const auto n = static_cast<Index>(d.size());
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, d[static_cast<std::size_t>(i)]);
  }
  return CsrMatrix::from_coo(coo);
}

TEST(PrecondDegenerate, OneByOneSolvesExactly) {
  const CsrMatrix a = diagonal_matrix({4.0});
  const std::vector<Real> b{8.0};
  for (const PreconditionerKind kind : kAllKinds) {
    CgOptions opts;
    opts.preconditioner = kind;
    const CgResult r = conjugate_gradient(a, b, opts);
    EXPECT_TRUE(r.converged) << to_string(kind);
    EXPECT_NEAR(r.x[0], 2.0, 1e-12) << to_string(kind);
  }
}

TEST(PrecondDegenerate, DiagonalOnlyMatrixIsOneLevelDeep) {
  const CsrMatrix a = diagonal_matrix({1.0, 2.0, 4.0, 8.0, 16.0});
  const std::vector<Real> b{1.0, 2.0, 4.0, 8.0, 16.0};
  for (const PreconditionerKind kind : kAllKinds) {
    CgOptions opts;
    opts.preconditioner = kind;
    const CgResult r = conjugate_gradient(a, b, opts);
    EXPECT_TRUE(r.converged) << to_string(kind);
    for (const Real xi : r.x) {
      EXPECT_NEAR(xi, 1.0, 1e-10) << to_string(kind);
    }
  }
  // No off-diagonal dependencies -> a single dependency level.
  const LevelScheduledIc0Preconditioner p(a);
  EXPECT_EQ(p.level_count(), 1);
}

TEST(PrecondDegenerate, DisconnectedComponentsSolve) {
  // Two 3-node chains with no coupling between them, each grounded once —
  // SPD but reducible (RCM must order each component separately).
  CooMatrix coo(6, 6);
  for (const Index base : {Index{0}, Index{3}}) {
    for (Index i = 0; i < 2; ++i) {
      coo.add_symmetric_pair(base + i, base + i + 1, -1.0);
    }
    coo.add(base, base, 2.5);  // 1 (chain) + 1.5 (pad)
    coo.add(base + 1, base + 1, 2.0);
    coo.add(base + 2, base + 2, 1.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const std::vector<Real> x_true{1.0, -2.0, 0.5, 3.0, 0.0, -1.0};
  const std::vector<Real> b = a.multiply(x_true);
  for (const PreconditionerKind kind : kAllKinds) {
    CgOptions opts;
    opts.preconditioner = kind;
    const CgResult r = conjugate_gradient(a, b, opts);
    EXPECT_TRUE(r.converged) << to_string(kind);
    for (std::size_t i = 0; i < x_true.size(); ++i) {
      EXPECT_NEAR(r.x[i], x_true[i], 1e-6) << to_string(kind);
    }
  }
}

// A pure grid Laplacian (no pads) is exactly singular: the all-ones vector
// is in the null space. Every kind must hand robust_solve something it can
// work with — the ladder converges on the compatible system (b ⟂ null
// space) or reports failure in the SolveReport; nothing throws out.
TEST(PrecondDegenerate, SingularLaplacianNeverEscapesTheLadder) {
  const Index n = 8;
  CooMatrix coo(n, n);
  for (Index i = 0; i + 1 < n; ++i) {
    coo.add_symmetric_pair(i, i + 1, -1.0);
  }
  coo.add(0, 0, 1.0);
  coo.add(n - 1, n - 1, 1.0);
  for (Index i = 1; i + 1 < n; ++i) {
    coo.add(i, i, 2.0);
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  // Compatible rhs: b = A·x for some x, so a solution exists despite the
  // singularity.
  std::vector<Real> x_any(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    x_any[static_cast<std::size_t>(i)] = static_cast<Real>(i % 3);
  }
  const std::vector<Real> b = a.multiply(x_any);
  for (const PreconditionerKind kind : kAllKinds) {
    robust::RobustSolveOptions opts;
    opts.cg.preconditioner = kind;
    const robust::RobustSolveResult r = robust::robust_solve(a, b, opts);
    // Typed-failure contract: the ladder always returns a report; x is the
    // best finite iterate (possibly zeros), never NaN/Inf, never UB.
    EXPECT_FALSE(r.report.attempts.empty()) << to_string(kind);
    for (const Real xi : r.x) {
      EXPECT_TRUE(std::isfinite(xi)) << to_string(kind);
    }
  }
}

TEST(PrecondDegenerate, ZeroMatrixFailsWithTypedErrors) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 0.0);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_THROW(JacobiPreconditioner{a}, PreconditionerError);
  EXPECT_THROW(Ic0Preconditioner{a}, PreconditionerError);
  EXPECT_THROW((LevelScheduledIc0Preconditioner{a}), PreconditionerError);
  EXPECT_THROW(ChebyshevPreconditioner{a}, PreconditionerError);
}

TEST(PrecondDegenerate, EmptyMatrixIsANoOp) {
  const CsrMatrix a = CsrMatrix::from_coo(CooMatrix(0, 0));
  for (const PreconditionerKind kind : kAllKinds) {
    const auto p = make_preconditioner(kind, a);
    std::vector<Real> r;
    std::vector<Real> out;
    EXPECT_NO_THROW(p->apply(r, out)) << to_string(kind);
  }
}

// Structural misuse stays a contract violation — distinct from the typed
// numerical error hostile input raises.
TEST(PrecondDegenerate, NonSquareIsStillAContractViolation) {
  const CsrMatrix a = CsrMatrix::from_coo(CooMatrix(2, 3));
  EXPECT_THROW(JacobiPreconditioner{a}, ppdl::ContractViolation);
  EXPECT_THROW(Ic0Preconditioner{a}, ppdl::ContractViolation);
  EXPECT_THROW((LevelScheduledIc0Preconditioner{a}), ppdl::ContractViolation);
  EXPECT_THROW(ChebyshevPreconditioner{a}, ppdl::ContractViolation);
}

}  // namespace
}  // namespace ppdl::linalg
