// Preconditioners for the conjugate-gradient solver.
//
// Power-grid conductance matrices are SPD M-matrices; Jacobi works but IC(0)
// (zero fill-in incomplete Cholesky) cuts iteration counts several-fold on
// large meshes — this is the default for the conventional-planner analysis.
//
// IC(0)'s triangular sweeps visit rows in dependency-level order: rows in one
// level do not read each other, so their divisions overlap instead of
// forming one chain. Each row still performs the natural-order sweeps'
// operations in their order, so the output bits are those of the plain
// gather/scatter solves. Two more members exist for thread scaling:
//   * ic0-level — the same sweeps with each level split across threads
//     through common/parallel, on the IC(0) factor of the RCM-permuted
//     matrix by default (numerically a different preconditioner from ic0).
//     It loses to serial ic0 at 1 and at 4 threads: on respin-large's
//     matrix at 4 threads one apply takes about 6–7 ms against ic0's
//     0.6–1.0 ms, because a level's rows cost less than its dispatch.
//   * chebyshev — a fixed-degree Chebyshev polynomial in A. Pure SpMV plus
//     vector kernels; no triangular solve at all.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "linalg/csr.hpp"

namespace ppdl::linalg {

/// Thrown when a preconditioner cannot be built or applied for numerical
/// reasons on the given input — a zero diagonal, an incomplete factorization
/// that breaks down even with diagonal shifting, an empty/non-finite
/// spectral bound. This is the solver-side member of the project error
/// taxonomy (NetlistError, ArtifactError, …): callers catch by class and
/// escalate (robust::robust_solve records it and climbs the ladder).
/// Structural API misuse (non-square matrix, size mismatch) stays a
/// ContractViolation.
class PreconditionerError : public std::runtime_error {
 public:
  explicit PreconditionerError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Interface: z = M⁻¹ r for a fixed matrix A captured at construction.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Apply the preconditioner: out = M⁻¹ r.
  virtual void apply(std::span<const Real> r, std::span<Real> out) const = 0;

  /// Human-readable name for reports.
  virtual const char* name() const = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "none"; }
};

/// Diagonal (Jacobi): out_i = r_i / A_ii. Throws PreconditionerError when a
/// diagonal entry is zero (structurally missing or exact zero).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<Real> inv_diag_;
};

namespace detail {

/// Zero fill-in incomplete Cholesky factor: A ≈ L Lᵀ with the sparsity of
/// tril(A), stored as lower-triangular CSR with each row sorted by column
/// and the diagonal entry last. Breakdown (non-positive pivot) is repaired
/// by diagonal shifting; PreconditionerError when shifting cannot save it.
struct Ic0Factor {
  Index n = 0;
  std::vector<Index> row_ptr;
  std::vector<Index> col_idx;
  std::vector<Real> values;
};

Ic0Factor build_ic0_factor(const CsrMatrix& a);

/// An Ic0Factor laid out for its two sweeps. Row i's level is 1 + the
/// highest level among the columns of its strictly-lower entries (0 when it
/// has none), so no two rows of one level read each other. Positions
/// p = 0..n−1 list the rows level by level, ascending within a level, and
/// each position's entries are packed in that order:
///   * lower: L's strictly-lower entries of row[p], columns ascending — the
///     forward gather's order;
///   * upper: the entries (j, L(j, row[p])) with j > row[p], j descending —
///     the order the backward scatter subtracts them from row[p].
/// Every j in row[p]'s upper entries has a higher level than row[p], so the
/// backward sweep may run the levels in reverse.
struct LevelOrderedIc0 {
  Index n = 0;
  /// Level k is positions [level_ptr[k], level_ptr[k+1]).
  std::vector<Index> level_ptr;
  std::vector<Index> row;  ///< the row solved at each position
  std::vector<Real> diag;  ///< L(row[p], row[p])
  std::vector<Index> lower_ptr;
  std::vector<Index> lower_col;
  std::vector<Real> lower_val;
  std::vector<Index> upper_ptr;
  std::vector<Index> upper_col;
  std::vector<Real> upper_val;

  Index level_count() const {
    return static_cast<Index>(level_ptr.size()) - 1;
  }
};

/// IC(0) of `a` (build_ic0_factor), in level order. O(nnz) past the factor.
LevelOrderedIc0 build_level_ordered_ic0(const CsrMatrix& a);

}  // namespace detail

/// Zero fill-in incomplete Cholesky. Output is bitwise that of the
/// natural-order gather (forward) and scatter (backward) solves.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const CsrMatrix& a);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "ic0"; }

 private:
  detail::LevelOrderedIc0 l_;
};

/// IC(0) whose sweeps split each dependency level across threads through
/// parallel::for_range. Rows and levels are Ic0Preconditioner's, so the
/// output is bit-identical to Ic0Preconditioner on the same matrix, for any
/// thread count.
///
/// With `use_rcm` (default) the matrix is first symmetrically permuted by
/// reverse Cuthill–McKee, which on mesh graphs trades many narrow levels
/// for fewer wide ones (more rows per parallel region). The factor is then
/// the IC(0) of the permuted matrix: output matches the serial
/// Ic0Preconditioner of P·A·Pᵀ, conjugated by P — equally valid as an SPD
/// preconditioner, numerically different from the unpermuted factor.
class LevelScheduledIc0Preconditioner final : public Preconditioner {
 public:
  explicit LevelScheduledIc0Preconditioner(const CsrMatrix& a,
                                           bool use_rcm = true);
  /// Not thread-safe per instance (reuses internal scratch buffers); use
  /// one instance per concurrent solve, as CG does.
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "ic0-level"; }

  /// Dependency levels of the sweeps (diagnostics; the parallel speedup
  /// ceiling is n / levels rows per region).
  Index level_count() const { return l_.level_count(); }

 private:
  detail::LevelOrderedIc0 l_;
  std::vector<Index> perm_;  ///< old→new RCM permutation; empty = identity
  mutable std::vector<Real> scratch_;  ///< permuted work vector
};

struct ChebyshevOptions {
  /// Number of Chebyshev iterations one apply performs (= degree of the
  /// polynomial in A plus one matters only to pedants; cost is degree − 1
  /// SpMVs per apply).
  Index degree = 4;
  /// λmin is taken as λmax / eig_ratio — the classic smoother convention;
  /// must be > 1. Overestimating λmin keeps the polynomial positive on
  /// (0, λmax], so the operator stays SPD even when the guess is crude.
  Real eig_ratio = 30.0;
  /// Power-method iterations refining the Gershgorin λmax bound (0 = use
  /// Gershgorin alone). Deterministic: fixed all-ones start vector.
  Index power_iterations = 8;
};

/// Fixed-degree Chebyshev polynomial preconditioner: one apply runs the
/// Chebyshev semi-iteration for A z = r on the interval [λmin, λmax] with
/// z₀ = 0, a fixed linear SPD operator in A (valid for PCG). λmax comes
/// from the Gershgorin row-sum bound (a guaranteed upper bound), optionally
/// tightened by a few deterministic power iterations with a 1.2× safety
/// margin; p(A) is positive definite whenever the spectrum sits inside
/// (0, λmax]. Should a tightened bound ever miss the top of the spectrum,
/// PCG detects the indefinite operator as a breakdown and the robust
/// ladder escalates — a recoverable typed failure, never silent error.
///
/// Holds a reference to `a`: the matrix must outlive the preconditioner
/// (the same lifetime CG already guarantees for the matrix it solves).
class ChebyshevPreconditioner final : public Preconditioner {
 public:
  explicit ChebyshevPreconditioner(const CsrMatrix& a,
                                   const ChebyshevOptions& options = {});
  /// Not thread-safe per instance (reuses internal scratch buffers); use
  /// one instance per concurrent solve, as CG does.
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "chebyshev"; }

  Real lambda_min() const { return lambda_min_; }
  Real lambda_max() const { return lambda_max_; }
  Index degree() const { return degree_; }

 private:
  const CsrMatrix& a_;
  Index degree_ = 4;
  Real lambda_min_ = 0.0;
  Real lambda_max_ = 0.0;
  mutable std::vector<Real> d_;    ///< current correction
  mutable std::vector<Real> res_;  ///< running residual r − A·z
  mutable std::vector<Real> ad_;   ///< A·d
};

enum class PreconditionerKind { kNone, kJacobi, kIc0, kIc0Level, kChebyshev };

/// Canonical CLI/report name of a kind ("none", "jacobi", "ic0",
/// "ic0-level", "chebyshev").
const char* to_string(PreconditionerKind kind);

/// Factory.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a);

/// Parse "none" / "jacobi" / "ic0" / "ic0-level" / "chebyshev"; throws
/// ContractViolation otherwise.
PreconditionerKind parse_preconditioner(const std::string& name);

}  // namespace ppdl::linalg
