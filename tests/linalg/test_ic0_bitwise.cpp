// Bit-identity of Ic0Preconditioner::apply against the plain sweeps in
// natural row order: a forward gather that stores each solved entry to
// `out`, then a backward scatter in place. apply visits the rows by
// dependency level instead — forward through level-packed L rows, backward
// through the levels in reverse, pulling each row's updates from an Lᵀ view
// stored by descending row. Each row must still perform the natural sweeps'
// operations in their order, so no bit may move on any input: natural and
// RCM orderings (rows with and without an (i, i−1) entry), a generated
// replica's reduced matrix (hundreds of rows per level), a red-black mesh
// (two levels, no (i, i−1) entry anywhere), a diagonal-only factor, n = 0
// and n = 1, and right-hand sides holding ±inf and NaN. ctest runs this
// suite as linalg_ic0_bitwise (label determinism), so the sanitizer jobs
// see it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/mna.hpp"
#include "core/benchmarks.hpp"
#include "linalg/ordering.hpp"
#include "linalg/preconditioner.hpp"
#include "support/random_grid.hpp"

namespace ppdl::linalg {
namespace {

constexpr Real kInf = std::numeric_limits<Real>::infinity();
constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

/// The stored-and-reloaded sweeps: forward gather L y = r, then backward
/// scatter Lᵀ z = y in place.
std::vector<Real> reference_apply(const detail::Ic0Factor& l,
                                  const std::vector<Real>& r) {
  std::vector<Real> out(r.size());
  for (Index i = 0; i < l.n; ++i) {
    Real acc = r[static_cast<std::size_t>(i)];
    const Index beg = l.row_ptr[static_cast<std::size_t>(i)];
    const Index end = l.row_ptr[static_cast<std::size_t>(i) + 1];
    for (Index k = beg; k < end - 1; ++k) {
      acc -= l.values[static_cast<std::size_t>(k)] *
             out[static_cast<std::size_t>(
                 l.col_idx[static_cast<std::size_t>(k)])];
    }
    out[static_cast<std::size_t>(i)] =
        acc / l.values[static_cast<std::size_t>(end - 1)];
  }
  for (Index i = l.n - 1; i >= 0; --i) {
    const Index beg = l.row_ptr[static_cast<std::size_t>(i)];
    const Index end = l.row_ptr[static_cast<std::size_t>(i) + 1];
    const Real zi = out[static_cast<std::size_t>(i)] /
                    l.values[static_cast<std::size_t>(end - 1)];
    out[static_cast<std::size_t>(i)] = zi;
    for (Index k = beg; k < end - 1; ++k) {
      out[static_cast<std::size_t>(l.col_idx[static_cast<std::size_t>(k)])] -=
          l.values[static_cast<std::size_t>(k)] * zi;
    }
  }
  return out;
}

void expect_apply_bitwise(const CsrMatrix& a, const std::vector<Real>& r) {
  const Ic0Preconditioner precond(a);
  std::vector<Real> got(r.size(), 0.0);
  precond.apply(r, got);
  const std::vector<Real> want = reference_apply(detail::build_ic0_factor(a), r);
  ASSERT_EQ(got.size(), want.size());
  std::size_t first = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(Real)) != 0) {
      first = i;
      break;
    }
  }
  EXPECT_EQ(first, got.size()) << "first differing element " << first << ": "
                               << got[first] << " vs " << want[first];
}

/// Rows i with an (i, i−1) entry in tril(a), and rows without one.
std::pair<Index, Index> carried_rows(const CsrMatrix& a) {
  Index with = 0;
  Index without = 0;
  for (Index i = 1; i < a.rows(); ++i) {
    const auto beg = a.row_ptr()[static_cast<std::size_t>(i)];
    const auto end = a.row_ptr()[static_cast<std::size_t>(i) + 1];
    bool has = false;
    for (Index k = beg; k < end; ++k) {
      has = has || a.col_idx()[static_cast<std::size_t>(k)] == i - 1;
    }
    ++(has ? with : without);
  }
  return {with, without};
}

/// Block-diagonal a ⊕ b: row a.rows() starts the second block and has no
/// (i, i−1) entry, so nothing may flow across the seam in either sweep.
CsrMatrix direct_sum(const CsrMatrix& a, const CsrMatrix& b) {
  const Index m = a.rows();
  CooMatrix coo(m + b.rows(), m + b.rows());
  for (const auto* part : {&a, &b}) {
    const Index off = part == &a ? 0 : m;
    for (Index r = 0; r < part->rows(); ++r) {
      for (Index k = part->row_ptr()[static_cast<std::size_t>(r)];
           k < part->row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        coo.add(off + r, off + part->col_idx()[ku], part->values()[ku]);
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

const testsupport::GridCase kCases[] = {
    {12, 17, 3, 10.0, 0.2},
    {31, 9, 11, 1e4, 0.05},
    {40, 40, 29, 100.0, 0.01},
};

TEST(Ic0ApplyBitwise, RandomGridsNaturalOrder) {
  for (const auto& c : kCases) {
    const CsrMatrix a = testsupport::random_grid_matrix(c);
    const auto [with, without] = carried_rows(a);
    ASSERT_GT(with, 0);
    ASSERT_GT(without, 0);  // each grid row starts without one
    expect_apply_bitwise(a, testsupport::random_vector(a.rows(), c.seed + 1));
  }
}

TEST(Ic0ApplyBitwise, RandomGridsRcmOrder) {
  for (const auto& c : kCases) {
    const CsrMatrix base = testsupport::random_grid_matrix(c);
    const CsrMatrix a = base.permuted_symmetric(rcm_ordering(base));
    const auto [with, without] = carried_rows(a);
    ASSERT_GT(with, 0);
    ASSERT_GT(without, 0);
    expect_apply_bitwise(a, testsupport::random_vector(a.rows(), c.seed + 2));
  }
}

TEST(Ic0ApplyBitwise, GeneratedReplicaReducedMatrix) {
  core::BenchmarkOptions opts;
  opts.scale = 0.02;
  const analysis::MnaSystem sys =
      analysis::assemble_mna(core::make_benchmark("ibmpg2", opts).grid);
  const CsrMatrix& a = sys.g_reduced;
  const Index levels = detail::build_level_ordered_ic0(a).level_count();
  ASSERT_GT(a.rows(), 20 * levels) << a.rows() << " rows, " << levels
                                   << " levels";
  expect_apply_bitwise(a, sys.rhs);
  expect_apply_bitwise(a, testsupport::random_vector(a.rows(), 5));
}

TEST(Ic0ApplyBitwise, RedBlackMeshWithoutSubdiagonal) {
  // Red nodes (i + j even) first, black ones after: every edge joins a red
  // and a black node, so the forward sweep has two levels and no row has an
  // (i, i−1) entry.
  for (const auto& c : kCases) {
    const CsrMatrix base = testsupport::random_grid_matrix(c);
    std::vector<Index> perm(static_cast<std::size_t>(base.rows()));
    Index next = 0;
    for (const Index colour : {0, 1}) {
      for (Index i = 0; i < c.rows; ++i) {
        for (Index j = 0; j < c.cols; ++j) {
          if ((i + j) % 2 == colour) {
            perm[static_cast<std::size_t>(i * c.cols + j)] = next++;
          }
        }
      }
    }
    const CsrMatrix a = base.permuted_symmetric(perm);
    ASSERT_EQ(carried_rows(a).first, 0);
    ASSERT_EQ(detail::build_level_ordered_ic0(a).level_count(), 2);
    expect_apply_bitwise(a, testsupport::random_vector(a.rows(), c.seed + 3));
  }
}

TEST(Ic0ApplyBitwise, DiagonalOnlyMatrix) {
  const std::vector<Real> d = {4.0, 0.5, 9.0, 1e-3, 7.25};
  CooMatrix coo(5, 5);
  for (Index i = 0; i < 5; ++i) {
    coo.add(i, i, d[static_cast<std::size_t>(i)]);
  }
  expect_apply_bitwise(CsrMatrix::from_coo(coo),
                       {1.0, -2.0, kInf, 3.5, kNaN});
}

TEST(Ic0ApplyBitwise, EmptyAndSingleRow) {
  expect_apply_bitwise(CsrMatrix::from_coo(CooMatrix(0, 0)), {});
  CooMatrix one(1, 1);
  one.add(0, 0, 4.0);
  expect_apply_bitwise(CsrMatrix::from_coo(one), {2.0});
  expect_apply_bitwise(CsrMatrix::from_coo(one), {-kInf});
}

TEST(Ic0ApplyBitwise, NonFiniteRightHandSides) {
  const CsrMatrix a = testsupport::random_grid_matrix({16, 16, 5, 10.0, 0.1});
  const auto n = static_cast<std::size_t>(a.rows());
  for (const Real bad : {kInf, -kInf, kNaN}) {
    for (const std::size_t at : {std::size_t{0}, n / 2 - 1, n / 2, n - 1}) {
      std::vector<Real> r = testsupport::random_vector(a.rows(), 77);
      r[at] = bad;
      expect_apply_bitwise(a, r);
    }
  }
  std::vector<Real> mixed = testsupport::random_vector(a.rows(), 78);
  mixed[3] = kInf;
  mixed[n - 5] = -kInf;
  mixed[n / 3] = kNaN;
  expect_apply_bitwise(a, mixed);
}

TEST(Ic0ApplyBitwise, InfiniteNeighbourAcrossAMissingSubdiagonal) {
  // An inf solved just before a row without an (i, i−1) entry must not
  // reach that row: a carried 0·inf would turn it into NaN.
  const CsrMatrix top = testsupport::random_grid_matrix({6, 7, 13, 10.0, 0.3});
  const CsrMatrix a =
      direct_sum(top, testsupport::random_grid_matrix({5, 8, 17, 10.0, 0.3}));
  const auto seam = static_cast<std::size_t>(top.rows());
  for (const std::size_t at : {seam - 1, seam}) {
    for (const Real bad : {kInf, -kInf}) {
      std::vector<Real> r = testsupport::random_vector(a.rows(), 91);
      r[at] = bad;
      // The block the inf is not in solves to finite values.
      std::vector<Real> z(r.size());
      Ic0Preconditioner(a).apply(r, z);
      const std::size_t clean = at < seam ? seam : 0;
      EXPECT_TRUE(std::isfinite(z[clean])) << "seam " << seam << " at " << at;
      expect_apply_bitwise(a, r);
    }
  }
}

}  // namespace
}  // namespace ppdl::linalg
