// Incremental IR re-solve engine for the planner loop.
//
// The conventional planner mutates a handful of stripe widths per iteration
// and then pays a full assemble + preconditioned-CG solve. This class is the
// resident alternative: it keeps the assembled MNA system, a sparse Cholesky
// factorization, and a branch→CSR slot map alive across iterations, learns
// which branches changed through the PowerGrid value observer, and re-solves
// with whichever of three strategies is cheapest:
//
//   * hit      — nothing changed since the last analyze: return the cached
//                result.
//   * low_rank — the cumulative conductance delta since the last
//                factorization has tiny rank: exact Sherman–Morrison/
//                Woodbury solve against the frozen factor (k + 1 backsolve
//                pairs), accepted only when the true residual of the PATCHED
//                matrix meets the CG tolerance. Needs an exact factor, so it
//                runs only when the drop tolerance τ is 0.
//   * patch    — in-place CSR value re-summation of the dirty slots, then
//                warm-started CG on the patched matrix with the frozen
//                factorization as preconditioner (A₀⁻¹A ≈ I ⇒ a handful of
//                iterations).
//
// Once the accumulated |Δg| exceeds `staleness_budget` (relative to the
// factored matrix) or CG iteration counts inflate past
// `iteration_inflation`× the post-factorization baseline, the context falls
// back to full re-assembly + re-factorization (the `fallback` counter).
//
// Bit-identity contract: the patched matrix and right-hand side are
// bit-identical to a from-scratch assemble_mna() at the same grid state —
// CSR duplicate merging is a stable insertion-ordered fold, and the patcher
// replays exactly that fold per dirty slot. With `allow_low_rank` and
// `frozen_preconditioner` both off, analyze() therefore reproduces the full
// analyze_ir_drop() path bit-for-bit; the planner uses that mode contract in
// its regression tests, and always runs its final verify through the full
// path regardless.
//
// Counters `planner.resolve.{hit,low_rank,patch,fallback}` and the
// `planner.resolve.staleness` gauge are emitted through ppdl::obs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/ir_solver.hpp"
#include "analysis/mna.hpp"
#include "grid/power_grid.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/low_rank.hpp"

namespace ppdl::analysis {

/// Tuning knobs for the incremental context (the per-call analysis options
/// ride in through analyze()).
struct IncrementalSolveOptions {
  /// Use the Woodbury identity when the cumulative delta rank is at most
  /// `low_rank_max_rank`. Exact (up to round-off), verified by a true
  /// residual check before acceptance. It needs the exact factor, so it
  /// takes effect only with `preconditioner_drop_tolerance` = 0; at the
  /// default τ the context never takes the low-rank path.
  bool allow_low_rank = true;
  Index low_rank_max_rank = 16;
  /// Use the frozen factorization as the CG preconditioner on the patch
  /// path. Off (together with allow_low_rank = false) analyze() replays the
  /// full analyze_ir_drop() solve bit-for-bit.
  bool frozen_preconditioner = true;
  /// Drop |L(i,j)| ≤ τ·|L(i,i)| while factoring. The context builds one
  /// factor, dropped at this τ, and uses it as the frozen preconditioner;
  /// with τ > 0 there is no exact factor, so the Woodbury path is off
  /// (see `allow_low_rank`). Power-grid factors decay fast: on ibmpg6 at
  /// scale 0.05 the default keeps 1.13 M of the 4.74 M entries (and so
  /// sheds most of the sweep cost of every patched-CG iteration) for at
  /// most one extra iteration.
  Real preconditioner_drop_tolerance = 1e-3;
  /// Fall back to full re-assembly + re-factorization when
  /// Σ|g_now − g_factored| / Σ|g_factored| exceeds this.
  Real staleness_budget = 0.25;
  /// ... or when a patched CG solve needs more than this multiple of the
  /// post-factorization baseline iteration count.
  Real iteration_inflation = 4.0;
};

/// Per-context tallies (mirrors the planner.resolve.* obs counters so tests
/// can assert without the metrics registry).
struct ResolveStats {
  std::uint64_t hits = 0;
  std::uint64_t low_rank_solves = 0;
  std::uint64_t patched_solves = 0;
  std::uint64_t fallbacks = 0;  ///< full rebuilds after the first
  std::uint64_t cold_builds = 0;
};

/// Resident solve context bound to one grid. Attaches the grid's value
/// observer for its lifetime (construction throws if the single observer
/// slot is taken). Not copyable or movable: the observer captures `this`.
/// The grid must outlive the solver. Topology mutations between analyze()
/// calls are legal and trigger a full rebuild.
class IncrementalIrSolver {
 public:
  explicit IncrementalIrSolver(grid::PowerGrid& pg,
                               IncrementalSolveOptions options = {});
  ~IncrementalIrSolver();
  IncrementalIrSolver(const IncrementalIrSolver&) = delete;
  IncrementalIrSolver& operator=(const IncrementalIrSolver&) = delete;

  /// Analyze the grid at its current widths/loads/pads. Drop-in for
  /// analyze_ir_drop(): same options, same result contract (including the
  /// robust escalation ladder on the patch path). `options.solver ==
  /// kCholesky` is honored by delegating to the full path (a resident
  /// context cannot beat a caller who wants a fresh factorization each
  /// call). Grid validation runs on (re)builds only — topology is immutable
  /// between them and width/load/pad mutators enforce positivity.
  IrAnalysisResult analyze(const IrAnalysisOptions& options);

  const ResolveStats& stats() const { return stats_; }
  /// Current staleness ratio Σ|Δg| / Σ|g_factored| (0 when freshly built).
  Real staleness() const;

 private:
  void on_value_change(Index branch_or_sentinel);
  void rebuild(const IrAnalysisOptions& options);
  void rebuild_factor();
  void rebuild_rhs();
  void patch_dirty_slots();
  bool pad_adjacent(Index branch) const;
  Real current_conductance(Index branch) const;

  grid::PowerGrid& pg_;
  IncrementalSolveOptions opts_;
  grid::PowerGrid::ObserverToken token_ = 0;

  bool built_ = false;
  std::uint64_t built_topology_epoch_ = 0;
  std::uint64_t seen_value_epoch_ = 0;
  MnaSystem sys_;

  // branch → its up-to-4 CSR slots: [diag(f1), diag(f2), off(f1,f2),
  // off(f2,f1)], -1 where absent (pad endpoint).
  std::vector<Index> branch_slots_;
  // Per-CSR-slot contributor lists in branch (= insertion) order, so a slot
  // re-sum replays from_coo's stable duplicate fold bit-for-bit.
  std::vector<Index> slot_contrib_ptr_;
  std::vector<Index> slot_contrib_branch_;
  std::vector<signed char> slot_contrib_sign_;

  // Dirty journal (deduplicated via stamps; stamp bump clears in O(1)).
  std::vector<Index> dirty_;
  std::vector<std::uint64_t> dirty_mark_;
  std::uint64_t dirty_stamp_ = 1;
  bool rhs_dirty_ = false;
  // Per-CSR-slot dedup stamps for patch_dirty_slots.
  std::vector<std::uint64_t> slot_mark_;
  std::uint64_t slot_stamp_ = 0;

  // Frozen factorization state.
  std::unique_ptr<linalg::SparseCholesky> factor_;
  std::unique_ptr<linalg::CholeskyPreconditioner> frozen_precond_;
  std::vector<Real> g_at_factor_;
  Real g_norm_at_factor_ = 0.0;
  std::vector<Index> changed_since_factor_;
  std::vector<std::uint64_t> factor_mark_;
  std::uint64_t factor_stamp_ = 1;
  Index baseline_iterations_ = 0;
  bool force_refactor_ = false;

  // Result cache for the hit path.
  IrAnalysisResult cached_;
  bool cached_valid_ = false;
  std::vector<Real> cached_x0_;

  ResolveStats stats_;
};

}  // namespace ppdl::analysis
