#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ppdl::linalg {

SparseCholesky::SparseCholesky(const CsrMatrix& a,
                               std::optional<std::vector<Index>> perm,
                               Real drop_tolerance) {
  PPDL_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  PPDL_REQUIRE(drop_tolerance >= 0.0 && drop_tolerance < 1.0,
               "Cholesky drop tolerance must be in [0, 1)");
  n_ = a.rows();
  if (perm.has_value()) {
    PPDL_REQUIRE(static_cast<Index>(perm->size()) == n_,
                 "permutation size mismatch");
    perm_ = std::move(*perm);
    factor(a.permuted_symmetric(perm_), drop_tolerance);
  } else {
    factor(a, drop_tolerance);
  }
}

void SparseCholesky::factor(const CsrMatrix& a, Real drop_tolerance) {
  // Up-looking sparse Cholesky. Row i of L solves the sparse triangular
  // system L(0:i-1,0:i-1) · L(i,0:i-1)ᵀ = A(i,0:i-1); its nonzero pattern
  // is the union of elimination-tree paths j ⇝ i over the nonzeros
  // A(i, j<i), so the factor stores genuine fill only — an envelope scheme
  // would pay for the whole profile, which is ruinous under fill-reducing
  // (non-banded) orderings like nested dissection.
  //
  // With drop_tolerance > 0 the computed row is thresholded before it is
  // stored (incomplete factorization by value). Each row's substitution
  // runs against the rows already stored, so dropped entries also shrink
  // all downstream work — the pattern walk still enumerates the exact-fill
  // superset, but the flops track the kept entries.
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto vl = a.values();

  // Elimination tree: parent[j] = min{i > j : L(i,j) ≠ 0}, built with
  // path-compressing ancestor pointers (Liu's algorithm).
  std::vector<Index> parent(static_cast<std::size_t>(n_), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n_), -1);
  for (Index i = 0; i < n_; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      Index j = ci[static_cast<std::size_t>(k)];
      while (j != -1 && j < i) {
        const Index next = ancestor[static_cast<std::size_t>(j)];
        ancestor[static_cast<std::size_t>(j)] = i;
        if (next == -1) {
          parent[static_cast<std::size_t>(j)] = i;
        }
        j = next;
      }
    }
  }

  // Per-row build: enumerate the exact-fill pattern with a stamped etree
  // walk (a walk stops at a node already claimed by this row, so the
  // enumeration totals O(nnz(exact L))), run the sparse forward
  // substitution against the rows stored so far, then threshold and append
  // the row. Entries outside the pattern stay zero in the scatter `w`, so
  // the row-j dot products need no pattern intersection.
  //
  // The substitution needs the pattern in ascending order. A parent always
  // exceeds its child, so each walk yields an ascending path of unclaimed
  // nodes; merging it into the sorted pattern as it is walked keeps the
  // pattern sorted without a per-row sort.
  std::vector<Index> mark(static_cast<std::size_t>(n_), -1);
  std::vector<Index> pattern;
  std::vector<Index> path;
  std::vector<Real> w(static_cast<std::size_t>(n_), 0.0);
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  col_idx_.clear();
  values_.clear();
  for (Index i = 0; i < n_; ++i) {
    pattern.clear();
    Real aii = 0.0;
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index c = ci[static_cast<std::size_t>(k)];
      if (c == i) {
        aii = vl[static_cast<std::size_t>(k)];
        continue;
      }
      if (c > i) {
        continue;
      }
      w[static_cast<std::size_t>(c)] = vl[static_cast<std::size_t>(k)];
      path.clear();
      for (Index j = c; j < i && mark[static_cast<std::size_t>(j)] != i;
           j = parent[static_cast<std::size_t>(j)]) {
        mark[static_cast<std::size_t>(j)] = i;
        path.push_back(j);
      }
      // Merge from the back: only pattern entries above path.front() move.
      std::size_t kept = pattern.size();
      std::size_t left = path.size();
      pattern.resize(kept + left);
      std::size_t out = pattern.size();
      while (left > 0) {
        if (kept > 0 && pattern[kept - 1] > path[left - 1]) {
          pattern[--out] = pattern[--kept];
        } else {
          pattern[--out] = path[--left];
        }
      }
    }

    Real sumsq = 0.0;
    for (const Index j : pattern) {
      Real acc = w[static_cast<std::size_t>(j)];
      const Index jb = row_ptr_[static_cast<std::size_t>(j)];
      const Index je = row_ptr_[static_cast<std::size_t>(j) + 1] - 1;
      for (Index k = jb; k < je; ++k) {
        acc -= values_[static_cast<std::size_t>(k)] *
               w[static_cast<std::size_t>(
                   col_idx_[static_cast<std::size_t>(k)])];
      }
      const Real xj = acc / values_[static_cast<std::size_t>(je)];
      w[static_cast<std::size_t>(j)] = xj;
      sumsq += xj * xj;
    }

    const Real diag = aii - sumsq;
    PPDL_REQUIRE(diag > 0.0, "Cholesky pivot non-positive — matrix not SPD");
    const Real pivot = std::sqrt(diag);
    const Real threshold = drop_tolerance * pivot;
    for (const Index j : pattern) {
      const Real xj = w[static_cast<std::size_t>(j)];
      if (drop_tolerance == 0.0 || std::abs(xj) > threshold) {
        col_idx_.push_back(j);
        values_.push_back(xj);
      }
      w[static_cast<std::size_t>(j)] = 0.0;
    }
    col_idx_.push_back(i);
    values_.push_back(pivot);
    row_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<Index>(values_.size());
  }
}

std::vector<Real> SparseCholesky::solve(std::span<const Real> b) const {
  PPDL_REQUIRE(static_cast<Index>(b.size()) == n_,
               "Cholesky solve: size mismatch");
  std::vector<Real> x(static_cast<std::size_t>(n_));
  if (perm_.empty()) {
    std::copy(b.begin(), b.end(), x.begin());
  } else {
    for (Index i = 0; i < n_; ++i) {
      x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
          b[static_cast<std::size_t>(i)];
    }
  }

  // Forward: L z = b.
  for (Index i = 0; i < n_; ++i) {
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    Real acc = x[static_cast<std::size_t>(i)];
    for (Index k = beg; k < end - 1; ++k) {
      acc -= values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    x[static_cast<std::size_t>(i)] =
        acc / values_[static_cast<std::size_t>(end - 1)];
  }
  // Backward: Lᵀ y = z.
  for (Index i = n_ - 1; i >= 0; --i) {
    const Index beg = row_ptr_[static_cast<std::size_t>(i)];
    const Index end = row_ptr_[static_cast<std::size_t>(i) + 1];
    const Real yi =
        x[static_cast<std::size_t>(i)] / values_[static_cast<std::size_t>(end - 1)];
    x[static_cast<std::size_t>(i)] = yi;
    for (Index k = beg; k < end - 1; ++k) {
      x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] -=
          values_[static_cast<std::size_t>(k)] * yi;
    }
  }

  if (perm_.empty()) {
    return x;
  }
  std::vector<Real> out(static_cast<std::size_t>(n_));
  for (Index i = 0; i < n_; ++i) {
    out[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
  }
  return out;
}

}  // namespace ppdl::linalg
