// End-to-end PowerPlanningDL flow (paper Fig. 2 / Fig. 6) and the
// conventional-vs-DL comparison that feeds Tables III–V and Figs. 7–9.
//
// Phases:
//   1. Golden design  — conventional planner converges the generated grid;
//      its widths are the "historical data" (offline).
//   2. Training       — fit the width regressor on the golden design and
//      calibrate the Kirchhoff IR predictor (offline).
//   3. New spec       — γ-perturb the design's currents/voltages (§IV-D).
//   4. Conventional   — redesign the perturbed grid with the planner; its
//      one-design-iteration time is the paper's best-case "Conventional"
//      column (Table IV reports exactly that), and its converged widths are
//      the golden reference for prediction error.
//   5. PowerPlanningDL — predict widths with the NN, predict IR with
//      Kirchhoff; their summed wall time is the "PowerPlanningDL" column.
#pragma once

#include <string>
#include <vector>

#include "analysis/ir_solver.hpp"
#include "common/deadline.hpp"
#include "core/benchmarks.hpp"
#include "core/ir_predictor.hpp"
#include "core/ppdl_model.hpp"
#include "grid/perturb.hpp"
#include "planner/conventional_planner.hpp"

namespace ppdl::core {

/// Offline flow phases a checkpoint can mark as completed, in order.
enum class FlowPhase {
  kNone = 0,          ///< nothing completed yet
  kGoldenDesign = 1,  ///< phase 1: golden widths + golden analysis
  kTraining = 2,      ///< phase 2: trained model + IR calibration inputs
  kPerturbedSpec = 3, ///< phase 3: perturbed loads / pad voltages
};

const char* to_string(FlowPhase phase);

struct FlowOptions {
  BenchmarkOptions benchmark;
  PpdlModelConfig model;
  Real gamma = 0.10;  ///< perturbation size (paper default 10%)
  /// §V-A: "Current loads of the IBM PG benchmarks are modified in order to
  /// obtain the desired effects" — the headline experiments perturb loads;
  /// Fig. 9 sweeps the other kinds explicitly.
  grid::PerturbationKind perturbation =
      grid::PerturbationKind::kCurrentWorkloads;
  U64 perturb_seed = 99;
  Index planner_max_iterations = 40;
  /// Preconditioner for every CG solve the flow issues (golden planning,
  /// sign-off, redesign). IC(0) is the default at every thread count: its
  /// level-ordered serial sweeps beat `ic0-level`'s per-level parallel
  /// loop at 1 and 4 threads on respin-large's matrix (see DESIGN.md
  /// "Parallel execution & determinism").
  linalg::PreconditionerKind preconditioner = linalg::PreconditionerKind::kIc0;
  /// Incremental re-solve for every planner loop the flow runs (golden
  /// design, conventional redesign): a resident context caches the MNA
  /// system + factorization across iterations and re-solves deltas (see
  /// analysis::IncrementalIrSolver). The final verify always runs the full
  /// path. CLI escape hatch: --no-incremental.
  bool incremental = true;
  /// A golden design whose planner got stuck or whose solver failed is not
  /// "historical data" — training on it teaches the regressor unconverged
  /// widths. When true (default) such designs are excluded: the model is
  /// left untrained (predictions fall back to layer defaults) and the IR
  /// predictor uncalibrated, with the exclusion surfaced in FlowResult.
  /// When false the design is used anyway, but still marked in the result.
  bool exclude_unconverged_golden = true;

  // --- durability & graceful degradation ---------------------------------
  /// When non-empty, run_flow snapshots a checkpoint artifact here after
  /// each completed offline phase (golden design → trained model →
  /// perturbed spec), via the crash-safe artifact container.
  std::string checkpoint_path;
  /// When a checkpoint_path is set and the file holds a matching
  /// checkpoint, resume from its last completed phase instead of
  /// recomputing. A damaged or mismatched checkpoint is discarded loudly
  /// (FlowResult::resume_discarded) and the flow starts fresh.
  bool resume = true;
  /// Rethrow checkpoint load errors instead of discarding — for callers
  /// that must know their historical data is damaged.
  bool strict_resume = false;
  /// Wall-clock budget for the whole run in seconds (0 = unlimited). The
  /// budget is threaded into planner iterations, trainer epochs, and the
  /// robust solve ladder; when it expires the flow finishes with
  /// `timed_out == true` and the best-so-far design/model instead of
  /// throwing work away.
  Real deadline_seconds = 0.0;

  // --- observability ------------------------------------------------------
  /// When non-empty, the flow writes a schema-versioned run report
  /// (ppdl.run_report JSON, see common/obs_report.hpp) here on completion
  /// via the crash-safe atomic writer. The report scopes the global metrics
  /// registry to this run with a before/after snapshot delta, so concurrent
  /// unrelated activity in the same process is excluded. Written even when
  /// PPDL_METRICS=off (the metrics section is then empty; result-level
  /// values and timings are computed regardless).
  std::string run_report_path;
};

/// On-disk snapshot of the offline flow state after each completed phase,
/// persisted through common/artifact_io (format header, checksum, atomic
/// rename). Fields past `completed` are only meaningful up to that phase.
struct FlowCheckpoint {
  std::string benchmark_name;
  FlowPhase completed = FlowPhase::kNone;

  // Phase 1: golden design.
  std::vector<Real> golden_widths;        ///< per branch (0 on vias), µm
  std::vector<Real> golden_node_ir_drop;  ///< golden analysis, V per node
  Real golden_worst_ir = 0.0;             ///< V
  Real golden_planner_seconds = 0.0;
  Index golden_iterations = 0;
  Index golden_escalations = 0;
  bool golden_planner_converged = false;
  bool golden_solver_failed = false;
  bool golden_converged = false;          ///< usable as training data
  std::string golden_diagnosis;

  // Phase 2: training.
  bool model_trained = false;
  std::string model_blob;  ///< PowerPlanningDL::save() output ("" untrained)
  Real train_seconds = 0.0;
  Index unconverged_excluded = 0;

  // Phase 3: perturbed specification.
  std::vector<Real> perturbed_load_amps;     ///< per load, A
  std::vector<Real> perturbed_pad_voltages;  ///< per pad, V
};

/// Atomic, checksummed checkpoint persistence. Loading throws
/// ArtifactError on container damage (missing/truncated/checksum/version)
/// and nn::ModelIoError on a malformed payload — never returns a partial
/// checkpoint.
void save_flow_checkpoint(const FlowCheckpoint& ckpt,
                          const std::string& path);
FlowCheckpoint load_flow_checkpoint(const std::string& path);

/// Per-phase wall times and quality metrics of one flow run.
struct FlowResult {
  std::string name;
  Index nodes = 0;
  Index interconnects = 0;

  // Offline phase.
  planner::PlannerResult golden_planner;
  TrainReport training;
  Real ir_correction = 1.0;
  /// Golden design converged (planner met margins AND every solve
  /// converged). When false the design is suspect as training data.
  bool golden_converged = false;
  /// Designs dropped from training because the golden phase did not
  /// converge (0 or 1 per flow run; aggregate across a suite to count).
  Index unconverged_excluded = 0;
  /// Why the golden design was rejected/marked (planner + solver state).
  std::string golden_diagnosis;

  // Conventional redesign of the perturbed spec.
  planner::PlannerResult perturbed_planner;
  Real conventional_seconds = 0.0;  ///< best-case: one design iteration
  Real conventional_full_seconds = 0.0;  ///< full convergence
  Real worst_ir_conventional = 0.0;      ///< V, converged design

  // PowerPlanningDL on the perturbed spec.
  WidthPrediction prediction;
  IrPrediction dl_ir;
  Real dl_seconds = 0.0;  ///< width prediction + IR prediction
  Real worst_ir_dl = 0.0;  ///< V

  // Width-prediction quality: predicted vs conventional redesign widths.
  std::vector<Real> golden_widths;     ///< µm, per interconnect
  std::vector<Real> predicted_widths;  ///< µm, matching order
  Real width_mse = 0.0;       ///< µm²
  Real width_r2 = 0.0;
  Real width_pearson = 0.0;
  Real width_mse_pct = 0.0;   ///< 100 · MSE / Var(golden) — Fig. 9's MSE(%)

  // Durability / degradation bookkeeping.
  /// Highest phase restored from a checkpoint (kNone on a fresh run).
  FlowPhase resumed_from = FlowPhase::kNone;
  /// Why an existing checkpoint was not used ("" when none or used).
  std::string resume_discarded;
  /// The wall-clock budget expired mid-run; the result is the best answer
  /// reachable in time, with `timed_out_phase` naming where it hit.
  bool timed_out = false;
  std::string timed_out_phase;
  /// Wall time spent in THIS run per offline phase — ≈0 for phases
  /// restored from a checkpoint (the resume acceptance signal).
  Real golden_seconds = 0.0;
  Real training_seconds = 0.0;
  Real perturb_seconds = 0.0;

  Real speedup() const {
    return dl_seconds > 0.0 ? conventional_seconds / dl_seconds : 0.0;
  }
  Real full_speedup() const {
    return dl_seconds > 0.0 ? conventional_full_seconds / dl_seconds : 0.0;
  }
};

/// Runs the complete flow for a named IBM-PG replica.
FlowResult run_flow(const std::string& benchmark_name,
                    const FlowOptions& options = {});

/// Runs the complete flow for an already-generated benchmark.
FlowResult run_flow(const grid::GeneratedBenchmark& bench,
                    const FlowOptions& options = {});

/// Planner options derived from a spec (IR limit, Jmax, iteration cap).
planner::PlannerOptions planner_options_for(const grid::GridSpec& spec,
                                            Index max_iterations);

}  // namespace ppdl::core
