#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"
#include "linalg/ordering.hpp"
#include "support/random_grid.hpp"
#include "support/reference_csr.hpp"

namespace ppdl::linalg {
namespace {

TEST(Coo, TracksEntriesAndDimensions) {
  CooMatrix coo(3, 4);
  coo.add(0, 0, 1.0);
  coo.add(2, 3, -2.0);
  EXPECT_EQ(coo.rows(), 3);
  EXPECT_EQ(coo.cols(), 4);
  EXPECT_EQ(coo.nnz(), 2);
}

TEST(Coo, OutOfRangeThrows) {
  CooMatrix coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), ppdl::ContractViolation);
  EXPECT_THROW(coo.add(0, -1, 1.0), ppdl::ContractViolation);
}

TEST(Coo, SymmetricPairAddsBoth) {
  CooMatrix coo(3, 3);
  coo.add_symmetric_pair(0, 2, 5.0);
  EXPECT_EQ(coo.nnz(), 2);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
}

TEST(Csr, FromCooMergesDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 0, -1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, RowsSortedByColumn) {
  CooMatrix coo(1, 5);
  coo.add(0, 4, 4.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 3, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto cols = m.col_idx();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(cols[0] < cols[1] && cols[1] < cols[2]);
}

TEST(Csr, MultiplyMatchesManual) {
  // [1 2; 3 4] * [5; 6] = [17; 39]
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 3.0);
  coo.add(1, 1, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> x{5.0, 6.0};
  const std::vector<Real> y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Csr, MultiplyRectangular) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> x{1.0, 10.0, 100.0};
  const std::vector<Real> y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 100.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(Csr, MultiplySizeMismatchThrows) {
  CooMatrix coo(2, 3);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> bad(2);
  std::vector<Real> y(2);
  EXPECT_THROW(m.multiply(bad, y), ppdl::ContractViolation);
}

TEST(Csr, DiagonalExtraction) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 2, 9.0);
  coo.add(2, 2, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Real> d = m.diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

TEST(Csr, SymmetryDetection) {
  CooMatrix sym(2, 2);
  sym.add_symmetric_pair(0, 1, 3.0);
  sym.add(0, 0, 1.0);
  EXPECT_TRUE(CsrMatrix::from_coo(sym).is_symmetric());

  CooMatrix asym(2, 2);
  asym.add(0, 1, 3.0);
  EXPECT_FALSE(CsrMatrix::from_coo(asym).is_symmetric());
}

TEST(Csr, TransposeRoundTrip) {
  CooMatrix coo(2, 3);
  coo.add(0, 1, 5.0);
  coo.add(1, 2, -2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), -2.0);
  const CsrMatrix tt = t.transposed();
  EXPECT_DOUBLE_EQ(tt.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(tt.at(1, 2), -2.0);
}

TEST(Csr, SymmetricPermutationPreservesValues) {
  // 3-node chain matrix, permute reversal.
  CooMatrix coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 3.0);
  coo.add(2, 2, 4.0);
  coo.add_symmetric_pair(0, 1, -1.0);
  coo.add_symmetric_pair(1, 2, -1.5);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<Index> perm{2, 1, 0};
  const CsrMatrix p = m.permuted_symmetric(perm);
  EXPECT_DOUBLE_EQ(p.at(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(p.at(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), -1.5);
  EXPECT_TRUE(p.is_symmetric());
}

TEST(Csr, EmptyMatrixBehaves) {
  CooMatrix coo(3, 3);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 0);
  const std::vector<Real> x{1.0, 2.0, 3.0};
  const std::vector<Real> y = m.multiply(x);
  for (const Real v : y) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

// --- bytes against a per-row stable_sort reference --------------------------

using testsupport::expect_csr_bytes;
using testsupport::reference_from_coo;

void expect_reference_bytes(const CooMatrix& coo) {
  expect_csr_bytes(CsrMatrix::from_coo(coo), reference_from_coo(coo));
}

TEST(CsrAssemblyBitwise, RandomTripletsWithDuplicates) {
  Rng rng(7);
  CooMatrix coo(40, 55);
  for (int k = 0; k < 1500; ++k) {
    const auto row = static_cast<Index>(rng.uniform(0.0, 39.999));
    const auto col = static_cast<Index>(rng.uniform(0.0, 12.999)) * 4;
    coo.add(row, col, rng.normal());
  }
  expect_reference_bytes(coo);
  expect_reference_bytes(CooMatrix(0, 0));
  expect_reference_bytes(CooMatrix(3, 0));
}

TEST(CsrAssemblyBitwise, DuplicatesSumInInsertionOrder) {
  // (1e16 + 1) − 1e16 is 0 left to right; every other order gives 1.
  CooMatrix coo(3, 4);
  coo.add(1, 2, 1e16);
  coo.add(1, 0, 5.0);
  coo.add(1, 2, 1.0);
  coo.add(1, 3, 2.0);
  coo.add(1, 2, -1e16);
  EXPECT_EQ(CsrMatrix::from_coo(coo).at(1, 2), 0.0);
  expect_reference_bytes(coo);
}

TEST(CsrAssemblyBitwise, SignedZerosKeepTheirBits) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, -0.0);  // alone: stays −0
  coo.add(0, 1, -0.0);  // −0 + −0 = −0
  coo.add(0, 1, -0.0);
  coo.add(0, 2, -0.0);  // −0 + +0 = +0
  coo.add(0, 2, 0.0);
  coo.add(1, 0, 0.0);  // +0 + −0 = +0
  coo.add(1, 0, -0.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_TRUE(std::signbit(m.at(0, 0)));
  EXPECT_TRUE(std::signbit(m.at(0, 1)));
  EXPECT_FALSE(std::signbit(m.at(0, 2)));
  EXPECT_FALSE(std::signbit(m.at(1, 0)));
  EXPECT_EQ(m.nnz(), 4);  // explicit zeros stay stored
  expect_reference_bytes(coo);
}

TEST(CsrAssemblyBitwise, LongRowsAndTheShortRowBoundary) {
  // Rows of 32 and 33 entries straddle the in-place sort's length limit;
  // row 2 holds 1,200 entries in random column order with duplicates and
  // the order-sensitive (1e16, 1, −1e16) slot spread through it.
  Rng rng(11);
  CooMatrix coo(4, 400);
  for (Index k = 0; k < 32; ++k) {
    coo.add(0, 31 - k, rng.normal());
  }
  for (Index k = 0; k < 33; ++k) {
    coo.add(1, (k * 7) % 20, rng.normal());
  }
  for (Index k = 0; k < 1200; ++k) {
    if (k == 100 || k == 600 || k == 1100) {
      coo.add(2, 123, k == 100 ? 1e16 : (k == 600 ? 1.0 : -1e16));
    }
    coo.add(2, static_cast<Index>(rng.uniform(0.0, 399.999)), rng.normal());
  }
  coo.add(3, 5, 1.0);
  for (Index k = 0; k < 1000; ++k) {
    coo.add(3, 399 - k % 400, -0.0);  // descending columns, signed zeros
  }
  expect_reference_bytes(coo);
}

TEST(CsrAssemblyBitwise, PermutedSymmetricMatchesReference) {
  const CsrMatrix a = testsupport::random_grid_matrix({13, 11, 5, 10.0, 0.2});
  for (const std::vector<Index>& perm : {rcm_ordering(a), nd_ordering(a)}) {
    CooMatrix coo(a.rows(), a.cols());
    for (Index r = 0; r < a.rows(); ++r) {
      for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
           k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        coo.add(perm[static_cast<std::size_t>(r)],
                perm[static_cast<std::size_t>(a.col_idx()[ku])],
                a.values()[ku]);
      }
    }
    expect_csr_bytes(a.permuted_symmetric(perm), reference_from_coo(coo));
  }
}

}  // namespace
}  // namespace ppdl::linalg
