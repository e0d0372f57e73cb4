// ppdl_bench — end-to-end respin benchmark (paper Table IV at Table III/V
// accuracy), driven by bench/e2e/run.py.
//
// One run sets a workload's design up several times (benchmark generation,
// golden conventional planning, DL training, Kirchhoff calibration — the
// paper's offline "historical data"), then replays the paper's redesign
// scenario as episodes until --seconds have been spent. Each episode takes
// one γ = 10 % current-load perturbation of the golden design and runs:
//
//   * the conventional best case — one default analyze_ir_drop plus one
//     update_widths on the reset perturbed grid (Table IV "Conventional",
//     independent of planner knobs);
//   * the conventional redesign to sign-off with the workload's planner
//     profile (the reference for accuracy);
//   * the DL path — PowerPlanningDL::predict + apply_widths +
//     KirchhoffIrPredictor::predict (Table IV "PowerPlanningDL").
//
// Only calls into public library functions are timed, from outside. Every
// episode is checked by an oracle (convergence, sign-off limit, a fresh
// analysis of the final widths, sanity of the DL outputs). With --trace=PATH
// each episode additionally replays the same calls split into their layer
// calls under spans (name, parent, start/end ns, episode), kept in memory
// and written to PATH as JSON lines at exit; run.py turns them into the
// per-layer metrics.
//
// The last stdout line is one JSON object with the raw per-setup and
// per-episode samples; run.py computes medians and percentiles from it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/incremental_solver.hpp"
#include "analysis/ir_solver.hpp"
#include "analysis/mna.hpp"
#include "common/artifact_io.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/memory.hpp"
#include "common/obs.hpp"
#include "common/obs_report.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/benchmarks.hpp"
#include "core/dataset.hpp"
#include "core/flow.hpp"
#include "core/ir_predictor.hpp"
#include "core/ppdl_model.hpp"
#include "grid/perturb.hpp"
#include "grid/validate.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/ordering.hpp"
#include "linalg/preconditioner.hpp"
#include "nn/mlp.hpp"
#include "planner/conventional_planner.hpp"
#include "planner/width_optimizer.hpp"

#ifndef PPDL_BENCH_BUILD_TYPE
#define PPDL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PPDL_BENCH_COMPILER
#define PPDL_BENCH_COMPILER "unknown"
#endif

using namespace ppdl;

namespace {

// Workloads. Each stresses a different layer (see README.md for why each
// exists); the golden design is fixed per workload, --seed drives only the
// perturbations, so set-up work is identical from run to run.
struct Workload {
  const char* name;
  const char* circuit;
  Real scale;
  Index threads;
  /// bench_planner's sign-off profile instead of planner_options_for(spec,
  /// 40): many small retightening steps through the resident re-solve
  /// context.
  bool signoff;
};

constexpr Workload kWorkloads[] = {
    {"respin-large", "ibmpg6", 0.05, 1, false},
    {"respin-large-4t", "ibmpg6", 0.05, 4, false},
    {"signoff-mid", "ibmpg3", 0.05, 1, true},
    {"respin-small-4t", "ibmpg2", 0.05, 4, false},
};

/// Set-ups per run; setup_s is their median.
constexpr Index kSetups = 3;
constexpr U64 kGridSeed = 42;
constexpr Real kGamma = 0.10;
constexpr Real kSmokeScale = 0.02;
constexpr Index kSmokeEpisodes = 3;
constexpr Index kSpmvReps = 20;
constexpr Index kDispatchReps = 200;
/// Training rows per layer sub-model (PpdlModelConfig::max_training_rows,
/// library default 20000). A deterministic sample keeps one set-up near a
/// few seconds, so a run can repeat it; see README.md.
constexpr Index kTrainingRows = 5000;

// --- spans ------------------------------------------------------------------

/// In-memory span recorder. Spans nest through an explicit stack (the
/// benchmark program is single-threaded; library work fans out inside the
/// calls).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_episode(Index episode) { episode_ = episode; }

  Index open(const char* name, Index reps) {
    const Index id = static_cast<Index>(records_.size());
    records_.push_back({name, stack_.empty() ? -1 : stack_.back(), episode_,
                        reps, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(Index id) {
    records_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// One JSON object per line: id, name, parent id (-1 at top level),
  /// episode (-1 during set-up), reps (calls inside the span), start/end ns.
  std::string to_jsonl() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << r.name
          << "\", \"parent\": " << r.parent << ", \"episode\": " << r.episode
          << ", \"reps\": " << r.reps << ", \"start_ns\": " << r.start_ns
          << ", \"end_ns\": " << r.end_ns << "}\n";
    }
    return out.str();
  }

 private:
  struct Record {
    std::string name;
    Index parent;
    Index episode;
    Index reps;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Index episode_ = -1;
  std::vector<Record> records_;
  std::vector<Index> stack_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, Index reps = 1)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, reps) : -1) {}
  ~Span() {
    if (id_ >= 0) {
      tracer_.close(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Index id_;
};

// --- JSON output ------------------------------------------------------------

std::string quoted(const std::string& s) {
  return "\"" + obs::json_escape(s) + "\"";
}

/// Flat JSON object builder (values are pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, Real v) {
    return add(key, obs::json_number(v));
  }
  JsonObject& add(const std::string& key, Index v) {
    return add(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return add(key, std::string(v ? "true" : "false"));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

// --- set-up -----------------------------------------------------------------

/// The offline products every episode reuses.
struct Design {
  grid::GridSpec spec;  ///< after scaling
  grid::PowerGrid golden;
  planner::PlannerOptions profile;
  /// Library-default sizing at the spec's limits: the conventional best
  /// case must not depend on the workload's planner profile.
  planner::WidthUpdateOptions conv_update;
  core::PowerPlanningDL model;
  core::KirchhoffIrPredictor predictor;
  bool golden_converged = false;
};

planner::PlannerOptions profile_for(const Workload& w,
                                    const grid::GridSpec& spec) {
  if (!w.signoff) {
    return core::planner_options_for(spec, 40);
  }
  // bench_planner's sign-off profile.
  planner::PlannerOptions opts = core::planner_options_for(spec, 200);
  opts.update.max_tighten = 0.97;
  opts.polish_attempts = 6;
  return opts;
}

Design set_up(const Workload& w, Real scale, Tracer& tracer,
              JsonObject& sample) {
  Design d;
  const Timer total;
  {
    const Span setup(tracer, "setup");
    Timer t;
    std::optional<grid::GeneratedBenchmark> bench;
    {
      const Span s(tracer, "core.make_benchmark");
      core::BenchmarkOptions opts;
      opts.scale = scale;
      opts.seed = kGridSeed;
      bench.emplace(core::make_benchmark(w.circuit, opts));
    }
    sample.add("make_benchmark_s", t.seconds());
    d.spec = bench->spec;
    d.golden = std::move(bench->grid);
    d.profile = profile_for(w, d.spec);
    d.conv_update = core::planner_options_for(d.spec, 1).update;
    core::PpdlModelConfig model_config;
    model_config.max_training_rows = kTrainingRows;
    d.model = core::PowerPlanningDL(model_config);
    t.reset();
    planner::PlannerResult golden;
    {
      const Span s(tracer, "core.golden");
      golden = planner::run_conventional_planner(d.golden, d.profile);
    }
    sample.add("golden_s", t.seconds());
    t.reset();
    core::TrainReport fit;
    {
      const Span s(tracer, "core.fit");
      fit = d.model.fit(d.golden);
    }
    sample.add("fit_s", t.seconds());
    t.reset();
    {
      const Span s(tracer, "core.calibrate");
      d.predictor.calibrate(d.golden, golden.final_analysis.node_ir_drop);
    }
    sample.add("calibrate_s", t.seconds());
    Index epochs = 0;
    for (const core::LayerFit& layer : fit.layers) {
      epochs += layer.history.epochs_run;
    }
    sample.add("epochs", epochs);
    sample.add("golden_iterations", golden.iterations);
    d.golden_converged = golden.converged && !golden.solver_failed;
  }
  sample.add("setup_s", total.seconds());
  return d;
}

// --- episodes ---------------------------------------------------------------

/// Widths of every wire branch, in branch order.
std::vector<Real> wire_widths(const grid::PowerGrid& pg) {
  std::vector<Real> out;
  out.reserve(static_cast<std::size_t>(pg.wire_count()));
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    if (pg.branch(bi).kind == grid::BranchKind::kWire) {
      out.push_back(pg.branch(bi).width);
    }
  }
  return out;
}

/// Replays an episode's calls under spans, each composite split into the
/// layer calls it is made of, then runs the single-layer probes no
/// composite contains (ordering, factorization, SpMV, pool dispatch,
/// feature extraction, MLP forward, forest build).
void traced_replay(const Design& d, const grid::PowerGrid& perturbed,
                   const grid::PowerGrid& base, const nn::Mlp& forward_net,
                   Index threads, Tracer& tracer) {
  const analysis::IrAnalysisOptions defaults;

  // Conventional best case, layer by layer (what analyze_ir_drop +
  // update_widths do inside).
  grid::PowerGrid g = base;
  analysis::MnaSystem sys;
  {
    const Span composite(tracer, "conv_iter");
    {
      const Span s(tracer, "grid.validate");
      if (grid::validate_grid(g).blocks_assembly()) {
        throw std::runtime_error("replay: grid validation blocks assembly");
      }
    }
    {
      const Span s(tracer, "analysis.assemble");
      sys = analysis::assemble_mna(g);
    }
    std::unique_ptr<linalg::Preconditioner> precond;
    {
      const Span s(tracer, "linalg.precond_setup");
      precond =
          linalg::make_preconditioner(defaults.preconditioner, sys.g_reduced);
    }
    linalg::CgResult cg;
    {
      const Span s(tracer, "linalg.cg");
      linalg::CgOptions opts;
      opts.tolerance = defaults.cg_tolerance;
      opts.shared_preconditioner = precond.get();
      cg = linalg::conjugate_gradient(sys.g_reduced, sys.rhs, opts);
    }
    analysis::IrAnalysisResult a;
    {
      const Span s(tracer, "analysis.finalize");
      a.node_voltage = analysis::expand_solution(sys, std::move(cg.x));
      analysis::detail::finalize_ir_metrics(g, a);
    }
    {
      const Span s(tracer, "planner.update");
      planner::WidthUpdateState state;
      planner::update_widths(g, a, d.conv_update, state);
    }
    if (!cg.converged) {
      throw std::runtime_error("replay: CG did not converge");
    }
  }

  // Resident re-solve context: cold build, one planner update, re-solve.
  {
    grid::PowerGrid h = base;
    analysis::IncrementalIrSolver ctx(h, d.profile.resolve);
    analysis::IrAnalysisOptions opts = d.profile.solver;
    const Span composite(tracer, "resolve");
    analysis::IrAnalysisResult a;
    {
      const Span s(tracer, "analysis.resolve_cold");
      a = ctx.analyze(opts);
    }
    {
      const Span s(tracer, "planner.update");
      planner::WidthUpdateState state;
      planner::update_widths(h, a, d.profile.update, state);
    }
    opts.initial_voltages = std::move(a.node_voltage);
    {
      const Span s(tracer, "analysis.resolve");
      ctx.analyze(opts);
    }
  }

  // Direct-solver layers the resident context builds on.
  {
    std::vector<Index> perm;
    {
      const Span s(tracer, "linalg.nd_order");
      perm = linalg::nd_ordering(sys.g_reduced);
    }
    const Span s(tracer, "linalg.cholesky");
    const linalg::SparseCholesky factor(
        sys.g_reduced, std::move(perm),
        d.profile.resolve.preconditioner_drop_tolerance);
  }
  {
    const std::vector<Real> x(static_cast<std::size_t>(sys.free_count), 1.0);
    std::vector<Real> y(x.size());
    const Span s(tracer, "linalg.spmv", kSpmvReps);
    for (Index r = 0; r < kSpmvReps; ++r) {
      sys.g_reduced.multiply(x, y);
    }
  }
  {
    // Empty-body parallel loop split into one chunk per thread: the pure
    // dispatch cost every parallel kernel pays per call.
    const Index n = threads * parallel::kDefaultGrain;
    std::vector<Index> touched(static_cast<std::size_t>(threads), 0);
    const Span s(tracer, "common.dispatch", kDispatchReps);
    for (Index r = 0; r < kDispatchReps; ++r) {
      parallel::for_range(n, parallel::kDefaultGrain, [&](Index lb, Index) {
        touched[static_cast<std::size_t>(lb / parallel::kDefaultGrain)] = r;
      });
    }
  }

  // DL path, call by call.
  grid::PowerGrid dl = perturbed;
  {
    const Span composite(tracer, "dl");
    core::WidthPrediction prediction;
    {
      const Span s(tracer, "core.predict");
      prediction = d.model.predict(dl);
    }
    {
      const Span s(tracer, "core.apply_widths");
      core::PowerPlanningDL::apply_widths(dl, prediction);
    }
    const Span s(tracer, "core.kirchhoff_eval");
    d.predictor.predict(dl);
  }
  std::vector<core::Dataset> datasets;
  {
    const Span s(tracer, "core.features");
    datasets = core::build_layer_datasets(
        perturbed, d.model.config().features,
        core::FeatureExtractor(d.model.config().feature_window_pitches));
  }
  {
    const Span s(tracer, "nn.forward");
    for (const core::Dataset& ds : datasets) {
      forward_net.predict(ds.x);
    }
  }
  {
    const Span s(tracer, "core.kirchhoff_build");
    core::KirchhoffIrPredictor().predict(dl);
  }
}

JsonObject run_episode(const Design& d, Index episode, U64 seed,
                       const nn::Mlp& forward_net, Index threads,
                       Tracer& tracer) {
  JsonObject rec;
  rec.add("id", episode);
  std::string why;
  const auto fail = [&why](const std::string& reason) {
    if (why.empty()) {
      why = reason;
    }
  };

  const Real ir_limit = d.spec.ir_limit_mv * 1e-3;
  const grid::PowerGrid perturbed = grid::perturbed_copy(
      d.golden, grid::PerturbationKind::kCurrentWorkloads, kGamma,
      Rng::stream(seed, static_cast<U64>(episode)).next_u64(), ir_limit);
  grid::PowerGrid base = perturbed;
  base.reset_wire_widths();

  // Conventional best case: one default analysis + one width update.
  {
    grid::PowerGrid g = base;
    const Timer t;
    const analysis::IrAnalysisResult a = analysis::analyze_ir_drop(g);
    planner::WidthUpdateState state;
    planner::update_widths(g, a, d.conv_update, state);
    rec.add("conv_iter_s", t.seconds());
    rec.add("cg_iterations", a.cg_iterations);
    rec.add("escalations", Index{a.solve_report.escalated() ? 1 : 0});
    if (!a.converged) {
      fail("cold analysis did not converge: " + a.solve_report.summary());
    }
  }

  // Conventional redesign to sign-off.
  grid::PowerGrid redesigned = base;
  planner::PlannerResult redesign;
  {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    const Timer t;
    redesign = planner::run_conventional_planner(redesigned, d.profile);
    rec.add("redesign_s", t.seconds());
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    rec.add("planner_iterations", redesign.iterations);
    for (const char* kind : {"hit", "low_rank", "patch", "fallback"}) {
      const auto it =
          delta.counters.find(std::string("planner.resolve.") + kind);
      rec.add(std::string("resolve_") + kind,
              it == delta.counters.end() ? Index{0} : it->second);
    }
  }
  const Real redesign_worst = redesign.final_analysis.worst_ir_drop;
  if (!redesign.converged || redesign.solver_failed) {
    fail("redesign did not converge: " + redesign.solver_diagnosis);
  }
  if (redesign_worst > ir_limit) {
    fail("redesign worst drop " + obs::json_number(redesign_worst * 1e3) +
         " mV exceeds the limit");
  }

  // PowerPlanningDL: width prediction + Kirchhoff IR estimate.
  grid::PowerGrid dl = perturbed;
  core::WidthPrediction prediction;
  core::IrPrediction dl_ir;
  {
    const Timer t;
    prediction = d.model.predict(dl);
    core::PowerPlanningDL::apply_widths(dl, prediction);
    dl_ir = d.predictor.predict(dl);
    rec.add("dl_s", t.seconds());
  }

  // Oracle: an independent full analysis of the signed-off widths.
  const analysis::IrAnalysisResult fresh =
      analysis::analyze_ir_drop(redesigned);
  if (!fresh.converged) {
    fail("fresh analysis of the final widths did not converge");
  } else if (std::abs(fresh.worst_ir_drop - redesign_worst) >
             1e-4 * redesign_worst) {
    fail("fresh analysis worst drop " +
         obs::json_number(fresh.worst_ir_drop) +
         " V disagrees with the planner's " +
         obs::json_number(redesign_worst) + " V");
  }
  if (static_cast<Index>(prediction.predicted.size()) != dl.wire_count()) {
    fail("DL predicted " + std::to_string(prediction.predicted.size()) +
         " widths for " + std::to_string(dl.wire_count()) + " wires");
  }
  if (!std::all_of(prediction.predicted.begin(), prediction.predicted.end(),
                   [](Real w) { return std::isfinite(w) && w > 0.0; })) {
    fail("DL predicted a non-finite or non-positive width");
  }
  if (!std::all_of(dl_ir.node_ir_drop.begin(), dl_ir.node_ir_drop.end(),
                   [](Real v) { return std::isfinite(v); }) ||
      !std::isfinite(dl_ir.worst_ir_drop)) {
    fail("Kirchhoff estimate has non-finite drops");
  }

  // Accuracy against the redesign (Tables III/V, Fig. 9).
  rec.add("redesign_worst_ir_mv", redesign_worst * 1e3);
  rec.add("dl_worst_ir_mv", dl_ir.worst_ir_drop * 1e3);
  rec.add("worst_ir_err_pct",
          100.0 * std::abs(dl_ir.worst_ir_drop - redesign_worst) /
              redesign_worst);
  const std::vector<Real> reference = wire_widths(redesigned);
  const std::vector<Real> predicted = wire_widths(dl);
  const Real var = variance(reference);
  rec.add("width_mse_pct",
          var > 0.0 ? 100.0 * mse(reference, predicted) / var : 0.0);

  if (tracer.enabled()) {
    tracer.set_episode(episode);
    traced_replay(d, perturbed, base, forward_net, threads, tracer);
    tracer.set_episode(-1);
  }

  rec.add("ok", why.empty());
  rec.add("why", quoted(why));
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("ppdl_bench",
                "end-to-end respin benchmark (Table IV timings + accuracy)");
  cli.add_flag("workload", "respin-large | respin-large-4t | signoff-mid | "
                           "respin-small-4t", "respin-small-4t");
  cli.add_flag("seed", "perturbation seed", "1");
  cli.add_flag("seconds", "episode time budget", "10");
  cli.add_flag("trace", "write layer spans (JSON lines) here; empty = off",
               "");
  cli.add_switch("smoke", "scale 0.02, one set-up, 3 episodes");
  try {
    cli.parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << e.what() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    return 0;
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cli.get("workload") == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::cerr << "ppdl_bench: unknown workload '" << cli.get("workload")
              << "'\n";
    return 2;
  }
  const Workload& w = *workload;
  const bool smoke = cli.get_bool("smoke");
  const U64 seed = static_cast<U64>(cli.get_int_in("seed", 0, INT64_MAX));
  const Real seconds = cli.get_real_in("seconds", 0.0, 3600.0);
  const std::string trace_path = cli.get("trace");

  set_log_level(LogLevel::kWarn);
  parallel::set_num_threads(w.threads);
  Tracer tracer(!trace_path.empty());

  try {
    const Real scale = smoke ? kSmokeScale : w.scale;
    std::vector<std::string> setups;
    Design design;
    const Index setup_count = smoke ? 1 : kSetups;
    for (Index k = 0; k < setup_count; ++k) {
      JsonObject sample;
      Design d = set_up(w, scale, tracer, sample);
      setups.push_back(sample.str());
      if (k == 0) {
        design = std::move(d);
      }
    }
    if (!design.golden_converged) {
      std::cerr << "ppdl_bench: golden design did not converge\n";
      return 1;
    }

    // A network of the trained model's architecture for the nn.forward
    // probe (the model's own sub-networks are private).
    const core::PpdlModelConfig& cfg = design.model.config();
    Rng init(cfg.init_seed);
    const nn::Mlp forward_net(
        nn::MlpConfig::paper_default(cfg.features.count(), 1,
                                     cfg.hidden_layers, cfg.hidden_units),
        init);

    std::vector<std::string> episodes;
    const Timer clock;
    const auto another_episode = [&](Index done) {
      if (smoke) {
        return done < kSmokeEpisodes;
      }
      // Stop before an episode of average length would overrun the budget.
      return done == 0 || clock.seconds() * static_cast<Real>(done + 1) /
                                  static_cast<Real>(done) <=
                              seconds;
    };
    for (Index e = 0; another_episode(e); ++e) {
      try {
        episodes.push_back(
            run_episode(design, e, seed, forward_net, w.threads, tracer)
                .str());
      } catch (const std::exception& ex) {
        episodes.push_back(JsonObject()
                               .add("id", e)
                               .add("ok", false)
                               .add("why", quoted(ex.what()))
                               .str());
      }
    }
    const Real measured_s = clock.seconds();

    if (tracer.enabled()) {
      write_raw_file_atomic(trace_path, tracer.to_jsonl());
    }

    JsonObject info;
    info.add("workload", quoted(w.name))
        .add("circuit", quoted(w.circuit))
        .add("scale", scale)
        .add("threads", w.threads)
        .add("nproc", parallel::hardware_threads())
        .add("nodes", design.golden.node_count())
        .add("wires", design.golden.wire_count())
        .add("seed", static_cast<Index>(seed))
        .add("compiler", quoted(PPDL_BENCH_COMPILER))
        .add("build_type", quoted(PPDL_BENCH_BUILD_TYPE))
        .add("measured_s", measured_s);
    std::cout << JsonObject()
                     .add("info", info.str())
                     .add("setups", json_array(setups))
                     .add("episodes", json_array(episodes))
                     .add("peak_rss_mib", peak_rss_mib())
                     .str()
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "ppdl_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
