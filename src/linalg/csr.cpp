#include "linalg/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  CsrMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();

  const auto n_rows = static_cast<std::size_t>(m.rows_);
  std::vector<Index> counts(n_rows + 1, 0);
  for (const Triplet& t : coo.entries()) {
    ++counts[static_cast<std::size_t>(t.row) + 1];
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    counts[r + 1] += counts[r];
  }

  // Scatter triplets into row buckets.
  std::vector<Index> col_raw(coo.entries().size());
  std::vector<Real> val_raw(coo.entries().size());
  std::vector<Index> cursor(counts.begin(), counts.end() - 1);
  for (const Triplet& t : coo.entries()) {
    const auto pos =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(t.row)]++);
    col_raw[pos] = t.col;
    val_raw[pos] = t.value;
  }

  // Sort each row by column and merge duplicates.
  m.row_ptr_.assign(n_rows + 1, 0);
  m.col_idx_.reserve(coo.entries().size());
  m.values_.reserve(coo.entries().size());
  std::vector<std::pair<Index, Real>> row_buf;
  for (std::size_t r = 0; r < n_rows; ++r) {
    row_buf.clear();
    for (Index k = counts[r]; k < counts[r + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      row_buf.emplace_back(col_raw[ku], val_raw[ku]);
    }
    // stable_sort keeps duplicate (row, col) entries in insertion order, so
    // the left-fold merge below sums them in a well-defined order. Callers
    // that re-sum a slot incrementally (IncrementalIrSolver) replay the same
    // insertion-ordered fold and land on the bit-identical value.
    std::stable_sort(
        row_buf.begin(), row_buf.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row_buf.size(); ++k) {
      if (!m.col_idx_.empty() &&
          m.row_ptr_[r] < static_cast<Index>(m.col_idx_.size()) &&
          m.col_idx_.back() == row_buf[k].first &&
          static_cast<Index>(m.col_idx_.size()) > m.row_ptr_[r]) {
        m.values_.back() += row_buf[k].second;
      } else {
        m.col_idx_.push_back(row_buf[k].first);
        m.values_.push_back(row_buf[k].second);
      }
    }
    m.row_ptr_[r + 1] = static_cast<Index>(m.col_idx_.size());
  }
  return m;
}

void CsrMatrix::multiply(std::span<const Real> x, std::span<Real> y) const {
  PPDL_REQUIRE(static_cast<Index>(x.size()) == cols_, "SpMV: x size mismatch");
  PPDL_REQUIRE(static_cast<Index>(y.size()) == rows_, "SpMV: y size mismatch");
  // Row-parallel: each output entry is one row's serial accumulation, so
  // the result is bit-identical at any thread count. Below
  // kSerialBelowRows the rows run on the calling thread, where waking the
  // pool costs more than it saves (the crossover measured inside an
  // IC(0)-PCG loop at 4 threads, DESIGN.md "Parallel execution &
  // determinism").
  constexpr Index kRowGrain = 512;
  constexpr Index kSerialBelowRows = 16 * 1024;
  parallel::for_range(
      rows_, kRowGrain,
      [&](Index row_begin, Index row_end) {
        for (Index r = row_begin; r < row_end; ++r) {
          Real acc = 0.0;
          const Index begin = row_ptr_[static_cast<std::size_t>(r)];
          const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
          for (Index k = begin; k < end; ++k) {
            const auto ku = static_cast<std::size_t>(k);
            acc += values_[ku] * x[static_cast<std::size_t>(col_idx_[ku])];
          }
          y[static_cast<std::size_t>(r)] = acc;
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
