// Compressed sparse row matrix — the compute format for SpMV and solvers.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/coo.hpp"

namespace ppdl::linalg {

/// Matrices with fewer rows run SpMV on the calling thread: below it,
/// waking the pool costs more than the row chunks it shares out (the
/// crossover measured inside an IC(0)-PCG loop at 4 threads, DESIGN.md
/// "Parallel execution & determinism"). Each row is one serial sum either
/// way, so the bits do not change.
inline constexpr Index kSerialBelowRows = 16 * 1024;

/// Immutable-structure CSR matrix. Values can be updated in place, which the
/// conventional planner uses when only conductances change between
/// iterations (same sparsity pattern, new widths).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix from_coo(const CooMatrix& coo);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(values_.size()); }

  std::span<const Index> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_idx() const { return col_idx_; }
  std::span<const Real> values() const { return values_; }
  std::span<Real> mutable_values() { return values_; }

  /// y = A * x. x.size() == cols(), y.size() == rows().
  void multiply(std::span<const Real> x, std::span<Real> y) const;

  /// Row r of A times x: the value multiply() stores in y[r], summed from
  /// +0.0 over the row's entries in column order.
  Real row_times(Index r, std::span<const Real> x) const {
    Real acc = 0.0;
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (Index k = row_ptr_[static_cast<std::size_t>(r)]; k < end; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      acc += values_[ku] * x[static_cast<std::size_t>(col_idx_[ku])];
    }
    return acc;
  }

  /// Returns A * x as a new vector.
  std::vector<Real> multiply(std::span<const Real> x) const;

  /// Main diagonal (missing entries are 0).
  std::vector<Real> diagonal() const;

  /// Value at (row, col); 0 if not stored. O(log nnz_row) via binary search.
  Real at(Index row, Index col) const;

  /// Index into values() of the stored entry at (row, col), or -1 when the
  /// slot is structurally absent. O(log nnz_row). Used with mutable_values()
  /// for in-place value patching on a fixed sparsity pattern.
  Index value_slot(Index row, Index col) const;

  /// True if the matrix equals its transpose exactly.
  bool is_symmetric(Real tol = 0.0) const;

  /// Transposed copy.
  CsrMatrix transposed() const;

  /// Symmetric permutation B = P A Pᵀ, i.e. B(p(i), p(j)) = A(i, j),
  /// where `perm[i]` gives the new index of old row i. Requires square A.
  CsrMatrix permuted_symmetric(std::span<const Index> perm) const;

  /// A + shift·I (Tikhonov regularization). Structurally missing diagonal
  /// entries are created. Requires square A.
  CsrMatrix with_shifted_diagonal(Real shift) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Real> values_;
};

}  // namespace ppdl::linalg
