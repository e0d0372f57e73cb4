#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/ordering.hpp"
#include "linalg/vector_ops.hpp"
#include "support/random_grid.hpp"

namespace ppdl::linalg {
namespace {

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

TEST(SparseCholesky, SolvesTridiagonalExactly) {
  const Index n = 20;
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 3.0);
    if (i + 1 < n) {
      coo.add_symmetric_pair(i, i + 1, -1.0);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(3);
  std::vector<Real> x_true(static_cast<std::size_t>(n));
  for (Real& v : x_true) {
    v = rng.normal();
  }
  const std::vector<Real> b = a.multiply(x_true);
  const SparseCholesky chol(a);
  const std::vector<Real> x = chol.solve(b);
  for (Index i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(SparseCholesky, SolvesMeshSystem) {
  const CsrMatrix a = laplacian_2d(9);
  Rng rng(5);
  std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
  for (Real& v : x_true) {
    v = rng.uniform(-1.0, 1.0);
  }
  const std::vector<Real> b = a.multiply(x_true);
  const SparseCholesky chol(a);
  const std::vector<Real> x = chol.solve(b);
  std::vector<Real> residual = a.multiply(x);
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] -= b[i];
  }
  EXPECT_LT(norm2(residual) / norm2(b), 1e-12);
}

TEST(SparseCholesky, PermutedSolveMatchesUnpermuted) {
  const CsrMatrix a = laplacian_2d(7);
  Rng rng(8);
  std::vector<Real> b(static_cast<std::size_t>(a.rows()));
  for (Real& v : b) {
    v = rng.normal();
  }
  const SparseCholesky plain(a);
  const SparseCholesky permuted(a, rcm_ordering(a));
  const std::vector<Real> x1 = plain.solve(b);
  const std::vector<Real> x2 = permuted.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-9);
  }
}

TEST(SparseCholesky, RcmShrinksTheFactorProfile) {
  // Scrambled path: natural-order envelope is fat, RCM makes it tight.
  const Index n = 60;
  std::vector<Index> label(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    label[static_cast<std::size_t>(i)] = (i % 2 == 0) ? i / 2 : n - 1 - i / 2;
  }
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(label[static_cast<std::size_t>(i)],
            label[static_cast<std::size_t>(i)], 2.5);
    if (i + 1 < n) {
      coo.add_symmetric_pair(label[static_cast<std::size_t>(i)],
                             label[static_cast<std::size_t>(i + 1)], -1.0);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const SparseCholesky natural(a);
  const SparseCholesky reordered(a, rcm_ordering(a));
  EXPECT_LT(reordered.factor_nnz(), natural.factor_nnz());
}

TEST(SparseCholesky, MatchesDenseLdltOnRandomSpd) {
  Rng rng(11);
  const Index n = 12;
  DenseMatrix dense(n, n);
  for (Real& v : dense.data()) {
    v = rng.normal();
  }
  DenseMatrix spd = dense.multiply(dense.transposed());
  for (Index i = 0; i < n; ++i) {
    spd(i, i) += static_cast<Real>(n);
  }
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      coo.add(i, j, spd(i, j));
    }
  }
  const CsrMatrix sparse = CsrMatrix::from_coo(coo);
  std::vector<Real> b(static_cast<std::size_t>(n));
  for (Real& v : b) {
    v = rng.normal();
  }
  const LdltFactorization ldlt(spd);
  const SparseCholesky chol(sparse);
  const std::vector<Real> x1 = ldlt.solve(b);
  const std::vector<Real> x2 = chol.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-9);
  }
}

TEST(SparseCholesky, NonSpdThrows) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add_symmetric_pair(0, 1, 2.0);  // indefinite
  EXPECT_THROW(SparseCholesky{CsrMatrix::from_coo(coo)},
               ppdl::ContractViolation);
}

TEST(SparseCholesky, NonSquareThrows) {
  CooMatrix coo(2, 3);
  EXPECT_THROW(SparseCholesky{CsrMatrix::from_coo(coo)},
               ppdl::ContractViolation);
}

TEST(SparseCholesky, SolveSizeMismatchThrows) {
  const CsrMatrix a = laplacian_2d(3);
  const SparseCholesky chol(a);
  const std::vector<Real> bad(4, 1.0);
  EXPECT_THROW(chol.solve(bad), ppdl::ContractViolation);
}

TEST(SparseCholesky, ReusableForMultipleRhs) {
  const CsrMatrix a = laplacian_2d(6);
  const SparseCholesky chol(a, rcm_ordering(a));
  Rng rng(13);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Real> x_true(static_cast<std::size_t>(a.rows()));
    for (Real& v : x_true) {
      v = rng.normal();
    }
    const std::vector<Real> b = a.multiply(x_true);
    const std::vector<Real> x = chol.solve(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_true[i], 1e-9);
    }
  }
}

struct FactorBytes {
  std::vector<Index> row_ptr;
  std::vector<Index> col_idx;
  std::vector<Real> values;
};

/// The up-looking factorization as it stood with a sorted symbolic walk:
/// each row's etree paths are collected in walk order, then std::sort'ed.
/// SparseCholesky merges the ascending paths instead; the factor it stores
/// must match this one byte for byte.
FactorBytes sort_based_factor(const CsrMatrix& a, Real drop_tolerance) {
  const Index n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto vl = a.values();
  const auto at = [](auto& v, Index i) -> auto& {
    return v[static_cast<std::size_t>(i)];
  };
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
  for (Index i = 0; i < n; ++i) {
    for (Index k = at(rp, i); k < at(rp, i + 1); ++k) {
      Index j = at(ci, k);
      while (j != -1 && j < i) {
        const Index next = at(ancestor, j);
        at(ancestor, j) = i;
        if (next == -1) {
          at(parent, j) = i;
        }
        j = next;
      }
    }
  }
  FactorBytes f;
  f.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  std::vector<Index> pattern;
  std::vector<Real> w(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) {
    pattern.clear();
    Real aii = 0.0;
    for (Index k = at(rp, i); k < at(rp, i + 1); ++k) {
      const Index c = at(ci, k);
      if (c == i) {
        aii = at(vl, k);
        continue;
      }
      if (c > i) {
        continue;
      }
      at(w, c) = at(vl, k);
      for (Index j = c; j < i && at(mark, j) != i; j = at(parent, j)) {
        at(mark, j) = i;
        pattern.push_back(j);
      }
    }
    std::sort(pattern.begin(), pattern.end());
    Real sumsq = 0.0;
    for (const Index j : pattern) {
      Real acc = at(w, j);
      const Index je = at(f.row_ptr, j + 1) - 1;
      for (Index k = at(f.row_ptr, j); k < je; ++k) {
        acc -= at(f.values, k) * at(w, at(f.col_idx, k));
      }
      const Real xj = acc / at(f.values, je);
      at(w, j) = xj;
      sumsq += xj * xj;
    }
    const Real pivot = std::sqrt(aii - sumsq);
    const Real threshold = drop_tolerance * pivot;
    for (const Index j : pattern) {
      const Real xj = at(w, j);
      if (drop_tolerance == 0.0 || std::abs(xj) > threshold) {
        f.col_idx.push_back(j);
        f.values.push_back(xj);
      }
      at(w, j) = 0.0;
    }
    f.col_idx.push_back(i);
    f.values.push_back(pivot);
    at(f.row_ptr, i + 1) = static_cast<Index>(f.values.size());
  }
  return f;
}

TEST(SparseCholeskyBits, MergedWalkMatchesSortBasedBuild) {
  using testsupport::GridCase;
  const GridCase cases[] = {
      {12, 7, 44, 1000.0, 0.05},
      {16, 16, 55, 50.0, 0.03},
      {31, 23, 66, 100.0, 0.02},
      {40, 40, 77, 10.0, 0.01},
  };
  for (const GridCase& c : cases) {
    const CsrMatrix a = testsupport::random_grid_matrix(c);
    const std::optional<std::vector<Index>> orders[] = {
        std::nullopt, rcm_ordering(a), nd_ordering(a)};
    for (const auto& perm : orders) {
      const CsrMatrix permuted = perm ? a.permuted_symmetric(*perm) : a;
      for (const Real tau : {0.0, 1e-3}) {
        SCOPED_TRACE(testing::Message()
                     << c.rows << "x" << c.cols << " seed " << c.seed
                     << (perm ? " permuted" : " natural") << " tau " << tau);
        const SparseCholesky chol(a, perm, tau);
        const FactorBytes ref = sort_based_factor(permuted, tau);
        const auto rp = chol.factor_row_ptr();
        const auto ci = chol.factor_col_idx();
        const auto lv = chol.factor_values();
        ASSERT_EQ(rp.size(), ref.row_ptr.size());
        ASSERT_EQ(ci.size(), ref.col_idx.size());
        ASSERT_EQ(lv.size(), ref.values.size());
        for (std::size_t k = 0; k < rp.size(); ++k) {
          ASSERT_EQ(rp[k], ref.row_ptr[k]) << "row_ptr " << k;
        }
        for (std::size_t k = 0; k < ci.size(); ++k) {
          ASSERT_EQ(ci[k], ref.col_idx[k]) << "col_idx " << k;
          ASSERT_EQ(std::bit_cast<U64>(lv[k]), std::bit_cast<U64>(ref.values[k]))
              << "value " << k;
        }
        // The layout cholesky.hpp documents: columns ascending, diagonal last.
        for (Index i = 0; i < chol.dimension(); ++i) {
          const auto b = static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]);
          const auto e =
              static_cast<std::size_t>(rp[static_cast<std::size_t>(i) + 1]);
          ASSERT_LT(b, e) << "row " << i << " is empty";
          ASSERT_EQ(ci[e - 1], i) << "row " << i << " does not end on its diagonal";
          for (std::size_t k = b + 1; k < e; ++k) {
            ASSERT_LT(ci[k - 1], ci[k]) << "row " << i << " not ascending";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppdl::linalg
