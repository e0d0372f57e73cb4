#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  CsrMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();
  const std::vector<Triplet>& entries = coo.entries();

  // Scatter triplets into row buckets, in insertion order within a row,
  // directly in the output arrays.
  const auto n_rows = static_cast<std::size_t>(m.rows_);
  m.row_ptr_.assign(n_rows + 1, 0);
  for (const Triplet& t : entries) {
    ++m.row_ptr_[static_cast<std::size_t>(t.row) + 1];
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  m.col_idx_.resize(entries.size());
  m.values_.resize(entries.size());
  {
    std::vector<Index> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
    for (const Triplet& t : entries) {
      const auto pos =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(t.row)]++);
      m.col_idx_[pos] = t.col;
      m.values_[pos] = t.value;
    }
  }

  // Sort each row by column, keeping duplicate (row, col) entries in
  // insertion order, and merge duplicates with a left fold — so they sum in
  // a well-defined order. Callers that re-sum a slot incrementally
  // (IncrementalIrSolver) replay the same insertion-ordered fold and land
  // on the bit-identical value. Rows of up to kInsertionSortMax entries
  // (every MNA row) sort in place by insertion, which shifts only past
  // strictly greater columns; longer rows sort (column, position) keys,
  // which never tie, so the unstable std::sort yields the stable order in
  // O(len·log len). Neither path allocates per row. The fold compacts the
  // rows in place: the write position never passes the read position.
  constexpr Index kInsertionSortMax = 32;
  Index* col = m.col_idx_.data();
  Real* val = m.values_.data();
  std::vector<std::pair<Index, Index>> keys;  // long rows: (column, position)
  std::vector<Real> sorted;                   // long rows: values in order
  Index begin = 0;
  Index write = 0;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const Index end = m.row_ptr_[r + 1];
    if (end - begin <= kInsertionSortMax) {
      for (Index k = begin + 1; k < end; ++k) {
        const Index c = col[k];
        const Real v = val[k];
        Index j = k;
        for (; j > begin && col[j - 1] > c; --j) {
          col[j] = col[j - 1];
          val[j] = val[j - 1];
        }
        col[j] = c;
        val[j] = v;
      }
    } else {
      keys.clear();
      sorted.clear();
      for (Index k = begin; k < end; ++k) {
        keys.emplace_back(col[k], k);
      }
      std::sort(keys.begin(), keys.end());
      for (const auto& key : keys) {
        sorted.push_back(val[key.second]);
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        col[begin + static_cast<Index>(i)] = keys[i].first;
        val[begin + static_cast<Index>(i)] = sorted[i];
      }
    }
    const Index row_out = write;
    for (Index k = begin; k < end; ++k) {
      if (write > row_out && col[write - 1] == col[k]) {
        val[write - 1] += val[k];
      } else {
        col[write] = col[k];
        val[write] = val[k];
        ++write;
      }
    }
    m.row_ptr_[r + 1] = write;
    begin = end;
  }
  m.col_idx_.resize(static_cast<std::size_t>(write));
  m.values_.resize(static_cast<std::size_t>(write));
  return m;
}

void CsrMatrix::multiply(std::span<const Real> x, std::span<Real> y) const {
  PPDL_REQUIRE(static_cast<Index>(x.size()) == cols_, "SpMV: x size mismatch");
  PPDL_REQUIRE(static_cast<Index>(y.size()) == rows_, "SpMV: y size mismatch");
  // Row-parallel: each output entry is one row's serial accumulation, so
  // the result is bit-identical at any thread count.
  constexpr Index kRowGrain = 512;
  parallel::for_range(
      rows_, kRowGrain,
      [&](Index row_begin, Index row_end) {
        for (Index r = row_begin; r < row_end; ++r) {
          y[static_cast<std::size_t>(r)] = row_times(r, x);
        }
      },
      {}, {.num_threads = rows_ < kSerialBelowRows ? 1 : 0});
}

std::vector<Real> CsrMatrix::multiply(std::span<const Real> x) const {
  std::vector<Real> y(static_cast<std::size_t>(rows_));
  multiply(x, y);
  return y;
}

std::vector<Real> CsrMatrix::diagonal() const {
  std::vector<Real> d(static_cast<std::size_t>(std::min(rows_, cols_)), 0.0);
  for (Index r = 0; r < static_cast<Index>(d.size()); ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

Real CsrMatrix::at(Index row, Index col) const {
  PPDL_REQUIRE(row >= 0 && row < rows_, "CSR at: row out of range");
  PPDL_REQUIRE(col >= 0 && col < cols_, "CSR at: col out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end =
      col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) {
    return 0.0;
  }
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Index CsrMatrix::value_slot(Index row, Index col) const {
  PPDL_REQUIRE(row >= 0 && row < rows_, "CSR value_slot: row out of range");
  PPDL_REQUIRE(col >= 0 && col < cols_, "CSR value_slot: col out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end =
      col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) {
    return -1;
  }
  return static_cast<Index>(it - col_idx_.begin());
}

bool CsrMatrix::is_symmetric(Real tol) const {
  if (rows_ != cols_) {
    return false;
  }
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const Index c = col_idx_[ku];
      if (std::abs(values_[ku] - at(c, r)) > tol) {
        return false;
      }
    }
  }
  return true;
}

CsrMatrix CsrMatrix::transposed() const {
  CooMatrix coo(cols_, rows_);
  coo.reserve(nnz());
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      coo.add(col_idx_[ku], r, values_[ku]);
    }
  }
  return from_coo(coo);
}

CsrMatrix CsrMatrix::permuted_symmetric(std::span<const Index> perm) const {
  PPDL_REQUIRE(rows_ == cols_, "symmetric permutation needs a square matrix");
  PPDL_REQUIRE(static_cast<Index>(perm.size()) == rows_,
               "permutation size mismatch");
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz());
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      coo.add(perm[static_cast<std::size_t>(r)],
              perm[static_cast<std::size_t>(col_idx_[ku])], values_[ku]);
    }
  }
  return from_coo(coo);
}

CsrMatrix CsrMatrix::with_shifted_diagonal(Real shift) const {
  PPDL_REQUIRE(rows_ == cols_, "diagonal shift needs a square matrix");
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz() + rows_);
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = begin; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      coo.add(r, col_idx_[ku], values_[ku]);
    }
    coo.add(r, r, shift);
  }
  return from_coo(coo);
}

}  // namespace ppdl::linalg
