// Low-rank (Sherman–Morrison/Woodbury) machinery over a frozen sparse
// Cholesky factorization.
//
// The incremental planner solve keeps one factorization of the reduced
// conductance matrix A₀ alive across iterations. A width update changes a
// handful of branch conductances, i.e. A = A₀ + Σₖ cₖ·uₖuₖᵀ where each uₖ is
// e_i − e_j (both endpoints free) or e_i (one endpoint is a pad). Two ways to
// spend the frozen factor:
//   * woodbury_solve — exact solve of the updated system via the Woodbury
//     identity: k + 1 triangular backsolve pairs plus one dense k×k LDLᵀ.
//     Worth it while k stays tiny relative to a CG iteration's cost.
//   * CholeskyPreconditioner — expose A₀⁻¹ as a CG preconditioner for the
//     patched matrix. For small relative perturbations A₀⁻¹A ≈ I, so CG
//     converges in a handful of iterations where a from-scratch IC(0) solve
//     needs hundreds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/preconditioner.hpp"

namespace ppdl::linalg {

/// Adapter exposing a SparseCholesky factorization as a CG preconditioner:
/// apply(r) ≈ A₀⁻¹r against the frozen matrix. The adapter keeps its own
/// single-precision copy of L (float values, 32-bit indices): the two
/// triangular sweeps are indexed walks whose cost scales with the entry
/// count, not the value width. They are throughput-bound, not bound by
/// the division chain: the τ = 1e-3 factor of ibmpg6 at scale 0.05 (ND)
/// keeps 13.6 entries per row. Visiting its rows in dependency-level
/// order, as Ic0Preconditioner does, gained nothing: 5,427 levels, and
/// 4.0–5.4 ms per apply against these sweeps' 3.6–5.4 ms (one thread,
/// nine runs). Entry dropping happens in the factorization itself
/// (SparseCholesky's drop tolerance), which also shrinks the build; the
/// adapter only re-encodes what the factor kept.
/// Exact consumers (Woodbury, the kCholesky ladder rung) keep using the
/// double factor directly. Non-owning: the factorization must outlive the
/// preconditioner.
class CholeskyPreconditioner final : public Preconditioner {
 public:
  explicit CholeskyPreconditioner(const SparseCholesky& factorization);
  void apply(std::span<const Real> r, std::span<Real> out) const override;
  const char* name() const override { return "frozen-cholesky"; }

 private:
  const SparseCholesky& factorization_;
  std::vector<std::int32_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<float> values_;
  mutable std::vector<float> work_;  ///< scratch for the sweeps (serial CG)
};

/// One symmetric rank-one term c·uuᵀ with u = e_i − e_j (when j ≥ 0) or
/// u = e_i (when j < 0) — exactly the shape of one branch-conductance delta
/// in the reduced MNA system (j < 0 models a pad-adjacent branch).
struct RankOneUpdate {
  Real coefficient = 0.0;
  Index i = 0;
  Index j = -1;
};

struct WoodburyResult {
  std::vector<Real> x;
  /// False when the dense capacitance system is not invertible (the update
  /// drove the matrix singular or the LDLᵀ pivot underflowed); callers fall
  /// back to an iterative solve of the patched matrix.
  bool ok = false;
};

/// Solve (A₀ + Σₖ cₖ·uₖuₖᵀ)·x = b through the Woodbury identity
///   x = y − W·(C⁻¹ + UᵀW)⁻¹·Uᵀy,  y = A₀⁻¹b,  W = A₀⁻¹U,  C = diag(c),
/// reusing the existing factorization of A₀. Terms with zero coefficient are
/// skipped. Serial and deterministic: identical inputs give bit-identical
/// results at any thread count.
WoodburyResult woodbury_solve(const SparseCholesky& a0,
                              std::span<const RankOneUpdate> terms,
                              std::span<const Real> b);

}  // namespace ppdl::linalg
