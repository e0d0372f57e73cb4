#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/cg.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {
namespace {

/// 1-D Laplacian (tridiagonal SPD): the resistive-chain conductance matrix.
CsrMatrix laplacian_1d(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) {
      coo.add_symmetric_pair(i, i + 1, -1.0);
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// 2-D 5-point Laplacian on an m×m grid — the structure of real PG meshes.
CsrMatrix laplacian_2d(Index m) {
  const Index n = m * m;
  CooMatrix coo(n, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) {
      const Index v = i * m + j;
      coo.add(v, v, 4.0);
      if (j + 1 < m) {
        coo.add_symmetric_pair(v, v + 1, -1.0);
      }
      if (i + 1 < m) {
        coo.add_symmetric_pair(v, v + m, -1.0);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

class CgPreconditioners
    : public ::testing::TestWithParam<PreconditionerKind> {};

TEST_P(CgPreconditioners, Solves1dChainExactly) {
  const Index n = 40;
  const CsrMatrix a = laplacian_1d(n);
  Rng rng(17);
  std::vector<Real> x_true(static_cast<std::size_t>(n));
  for (Real& v : x_true) {
    v = rng.normal();
  }
  const std::vector<Real> b = a.multiply(x_true);
  CgOptions opts;
  opts.preconditioner = GetParam();
  opts.tolerance = 1e-12;
  const CgResult result = conjugate_gradient(a, b, opts);
  ASSERT_TRUE(result.converged);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(result.x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-7);
  }
}

TEST_P(CgPreconditioners, Solves2dMesh) {
  const CsrMatrix a = laplacian_2d(12);
  Rng rng(23);
  std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
  for (Real& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const std::vector<Real> b = a.multiply(x_true);
  CgOptions opts;
  opts.preconditioner = GetParam();
  const CgResult result = conjugate_gradient(a, b, opts);
  ASSERT_TRUE(result.converged);
  std::vector<Real> residual = a.multiply(result.x);
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] -= b[i];
  }
  EXPECT_LT(norm2(residual) / norm2(b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CgPreconditioners,
                         ::testing::Values(PreconditionerKind::kNone,
                                           PreconditionerKind::kJacobi,
                                           PreconditionerKind::kIc0,
                                           PreconditionerKind::kIc0Level,
                                           PreconditionerKind::kChebyshev),
                         [](const auto& param_info) {
                           // gtest names must be identifiers: '-' -> '_'.
                           std::string name = to_string(param_info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplacian_1d(10);
  const std::vector<Real> b(10, 0.0);
  const CgResult result = conjugate_gradient(a, b);
  ASSERT_TRUE(result.converged);
  for (const Real v : result.x) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  EXPECT_EQ(result.iterations, 0);
}

TEST(Cg, WarmStartFromExactSolutionConvergesImmediately) {
  const CsrMatrix a = laplacian_1d(30);
  Rng rng(5);
  std::vector<Real> x_true(30);
  for (Real& v : x_true) {
    v = rng.normal();
  }
  const std::vector<Real> b = a.multiply(x_true);
  CgOptions opts;
  opts.tolerance = 1e-10;
  const CgResult result = conjugate_gradient(a, b, opts, x_true);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
}

TEST(Cg, WarmStartReducesIterations) {
  const CsrMatrix a = laplacian_2d(10);
  Rng rng(6);
  std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
  for (Real& v : x_true) {
    v = rng.normal();
  }
  const std::vector<Real> b = a.multiply(x_true);
  CgOptions opts;
  opts.preconditioner = PreconditionerKind::kNone;
  const CgResult cold = conjugate_gradient(a, b, opts);

  // Start near the solution.
  std::vector<Real> near = x_true;
  for (Real& v : near) {
    v += 1e-6 * rng.normal();
  }
  const CgResult warm = conjugate_gradient(a, b, opts, near);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(Cg, IterationCapStopsEarly) {
  const CsrMatrix a = laplacian_2d(12);
  Rng rng(8);
  std::vector<Real> b(static_cast<std::size_t>(a.rows()));
  for (Real& v : b) {
    v = rng.normal();
  }
  CgOptions opts;
  opts.preconditioner = PreconditionerKind::kNone;
  opts.max_iterations = 2;
  opts.tolerance = 1e-14;
  const CgResult result = conjugate_gradient(a, b, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_GT(result.relative_residual, 1e-14);
}

TEST(Cg, ObserverSeesMonotoneIterationNumbers) {
  const CsrMatrix a = laplacian_2d(8);
  std::vector<Real> b(static_cast<std::size_t>(a.rows()), 1.0);
  CgOptions opts;
  std::vector<Index> seen;
  opts.observer = [&](Index it, Real) { seen.push_back(it); };
  conjugate_gradient(a, b, opts);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  }
}

TEST(Cg, RhsSizeMismatchThrows) {
  const CsrMatrix a = laplacian_1d(5);
  const std::vector<Real> b(4, 1.0);
  EXPECT_THROW(conjugate_gradient(a, b), ppdl::ContractViolation);
}

TEST(Cg, Ic0BeatsPlainCgOnMesh) {
  const CsrMatrix a = laplacian_2d(20);
  std::vector<Real> b(static_cast<std::size_t>(a.rows()), 1.0);
  CgOptions plain;
  plain.preconditioner = PreconditionerKind::kNone;
  CgOptions ic0;
  ic0.preconditioner = PreconditionerKind::kIc0;
  const CgResult r_plain = conjugate_gradient(a, b, plain);
  const CgResult r_ic0 = conjugate_gradient(a, b, ic0);
  ASSERT_TRUE(r_plain.converged);
  ASSERT_TRUE(r_ic0.converged);
  EXPECT_LT(r_ic0.iterations, r_plain.iterations);
}

}  // namespace
}  // namespace ppdl::linalg
