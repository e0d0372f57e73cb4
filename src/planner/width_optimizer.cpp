#include "planner/width_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::planner {

std::string to_string(WidthUpdateStrategy strategy) {
  switch (strategy) {
    case WidthUpdateStrategy::kProportional:
      return "proportional";
    case WidthUpdateStrategy::kUniform:
      return "uniform";
    case WidthUpdateStrategy::kWorstRegion:
      return "worst-region";
  }
  return "?";
}

namespace {

/// Drop threshold below which a node counts as violation-free.
bool has_violation(const analysis::IrAnalysisResult& analysis,
                   const WidthUpdateOptions& options) {
  return analysis.worst_ir_drop > options.ir_limit ||
         analysis.worst_density > options.jmax;
}

Index update_proportional(grid::PowerGrid& pg,
                          const analysis::IrAnalysisResult& analysis,
                          const WidthUpdateOptions& options,
                          WidthUpdateState& state) {
  // Initialize the density target at the EM-legal maximum: any tighter and
  // we are spending metal beyond what eq. (4) requires.
  if (state.j_target <= 0.0) {
    state.j_target = options.jmax / options.em_safety;
  }
  // Tighten the target when the grid still violates the IR margin. Current
  // redistributes only mildly as widths grow (the topology fixes the flow
  // pattern), so drops scale roughly with 1/width ∝ J_target. If the sizing
  // pass changes nothing (the target is still looser than present widths),
  // keep tightening within this call so every update makes progress.
  const bool violating = analysis.worst_ir_drop > options.ir_limit;
  if (violating) {
    // Tighten 5% past the proportional estimate: drops respond slightly
    // sub-linearly to widening (current re-routes into the widened wires),
    // and without the overshoot the loop limps through an asymptotic tail
    // of sub-percent improvements. The polish pass reclaims any excess.
    const Real ratio = options.ir_limit / analysis.worst_ir_drop;
    state.j_target *= std::max(ratio * 0.95, options.max_tighten);
  }

  // Tapered sizing needs the stripes with their segments ordered along the
  // line (topology is immutable during planning, so build them once). The
  // sort compares precomputed centre coordinates: the comparisons, and so
  // the order std::sort leaves, are those of comparing branch_center()s.
  if (options.per_stripe && state.stripes.empty()) {
    std::vector<Real> along(static_cast<std::size_t>(pg.branch_count()));
    for (Index bi = 0; bi < pg.branch_count(); ++bi) {
      const grid::Branch& b = pg.branch(bi);
      if (b.kind == grid::BranchKind::kWire) {
        const grid::Point c = pg.branch_center(bi);
        along[static_cast<std::size_t>(bi)] =
            pg.layer(b.layer).horizontal ? c.x : c.y;
      }
    }
    for (Index layer = 0; layer < pg.layer_count(); ++layer) {
      for (auto& [coord, branches] : grid::stripes_of_layer(pg, layer)) {
        std::sort(branches.begin(), branches.end(), [&](Index a, Index b) {
          return along[static_cast<std::size_t>(a)] <
                 along[static_cast<std::size_t>(b)];
        });
        state.stripes.push_back(std::move(branches));
      }
    }
  }

  // w_target per wire from its own current; -1 marks vias/untouched.
  std::vector<Real> target(static_cast<std::size_t>(pg.branch_count()), -1.0);

  constexpr int kMaxTightenings = 64;
  for (int attempt = 0; attempt < kMaxTightenings; ++attempt) {
    Index changed = 0;
    if (options.per_stripe) {
      // Rolling maximum along each line: segments inherit the worst
      // requirement within the taper window around them. Stripes partition
      // the wire branches, so each parallel chunk writes a disjoint slice
      // of `target` and the result is independent of the thread count.
      const auto n_stripes = static_cast<Index>(state.stripes.size());
      parallel::for_range(n_stripes, 1, [&](Index sb, Index se) {
        std::vector<Real> req;
        std::vector<Index> window_max;  // monotone deque of positions
        for (Index s = sb; s < se; ++s) {
          const std::vector<Index>& stripe =
              state.stripes[static_cast<std::size_t>(s)];
          const auto n = static_cast<Index>(stripe.size());
          const Index window = std::max<Index>(
              1, static_cast<Index>(options.taper_window_fraction *
                                    static_cast<Real>(n)));
          // The maximum of 0.0 and the window's requirements, as a running
          // std::max from 0.0 takes it: a NaN, negative or −0.0 requirement
          // never wins, so each enters as +0.0 and every window maximum is
          // one of the stored bit patterns.
          req.resize(static_cast<std::size_t>(n));
          for (Index i = 0; i < n; ++i) {
            const Real current = std::abs(
                analysis.branch_current[static_cast<std::size_t>(
                    stripe[static_cast<std::size_t>(i)])]);
            const Real r = current / state.j_target;
            req[static_cast<std::size_t>(i)] = r > 0.0 ? r : 0.0;
          }
          // Sliding maximum over [i − window, i + window] in O(n): the
          // deque holds positions with strictly decreasing requirements.
          window_max.resize(static_cast<std::size_t>(n));
          std::size_t head = 0;
          std::size_t tail = 0;
          Index next = 0;
          for (Index i = 0; i < n; ++i) {
            for (const Index hi = std::min<Index>(n - 1, i + window);
                 next <= hi; ++next) {
              const Real r = req[static_cast<std::size_t>(next)];
              while (tail > head &&
                     req[static_cast<std::size_t>(window_max[tail - 1])] <= r) {
                --tail;
              }
              window_max[tail++] = next;
            }
            while (window_max[head] < i - window) {
              ++head;
            }
            target[static_cast<std::size_t>(
                stripe[static_cast<std::size_t>(i)])] =
                req[static_cast<std::size_t>(window_max[head])];
          }
        }
      });
    } else {
      // Disjoint per-branch writes — order-independent.
      constexpr Index kBranchGrain = 2048;
      parallel::for_range(pg.branch_count(), kBranchGrain,
                          [&](Index b, Index e) {
        for (Index bi = b; bi < e; ++bi) {
          if (pg.branch(bi).kind != grid::BranchKind::kWire) {
            continue;
          }
          const Real current =
              std::abs(analysis.branch_current[static_cast<std::size_t>(bi)]);
          target[static_cast<std::size_t>(bi)] = current / state.j_target;
        }
      });
    }

    for (Index bi = 0; bi < pg.branch_count(); ++bi) {
      const grid::Branch& b = pg.branch(bi);
      if (b.kind != grid::BranchKind::kWire ||
          target[static_cast<std::size_t>(bi)] < 0.0) {
        continue;
      }
      const Real w_new = std::max(
          b.width, grid::clamp_width(target[static_cast<std::size_t>(bi)],
                                     pg.layer(b.layer), options.rules));
      if (w_new > b.width * (1.0 + 1e-12)) {
        pg.set_wire_width(bi, w_new);
        ++changed;
      }
    }
    if (changed > 0 || !violating) {
      return changed;
    }
    state.j_target *= options.max_tighten;
    if (state.j_target <= 0.0) {
      break;
    }
  }
  return 0;  // width bounds are genuinely exhausted
}

Index update_uniform(grid::PowerGrid& pg,
                     const analysis::IrAnalysisResult& analysis,
                     const WidthUpdateOptions& options) {
  if (!has_violation(analysis, options)) {
    return 0;
  }
  Index changed = 0;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const grid::Branch& b = pg.branch(bi);
    if (b.kind != grid::BranchKind::kWire) {
      continue;
    }
    const Real w_new = grid::clamp_width(b.width * options.uniform_factor,
                                         pg.layer(b.layer), options.rules);
    if (w_new > b.width * (1.0 + 1e-12)) {
      pg.set_wire_width(bi, w_new);
      ++changed;
    }
  }
  return changed;
}

Index update_worst_region(grid::PowerGrid& pg,
                          const analysis::IrAnalysisResult& analysis,
                          const WidthUpdateOptions& options) {
  if (!has_violation(analysis, options)) {
    return 0;
  }
  // Threshold: the (1 - worst_fraction) quantile of node drops. Degenerate
  // inputs are guarded, not UB: an empty drop vector has no quantile (and
  // nothing to size against), and worst_fraction is clamped into (0, 1] —
  // below it the cast of a negative Real to size_t is undefined behavior,
  // above 1 every node is "worst" anyway.
  std::vector<Real> drops = analysis.node_ir_drop;
  if (drops.empty()) {
    return 0;
  }
  const Real fraction =
      std::min(std::max(options.worst_fraction, 0.0), 1.0);
  const auto k = static_cast<std::size_t>(
      static_cast<Real>(drops.size()) * (1.0 - fraction));
  const auto kth = std::min(k, drops.size() - 1);
  std::nth_element(drops.begin(), drops.begin() + static_cast<std::ptrdiff_t>(kth),
                   drops.end());
  const Real threshold = drops[kth];

  Index changed = 0;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const grid::Branch& b = pg.branch(bi);
    if (b.kind != grid::BranchKind::kWire) {
      continue;
    }
    const Real drop = std::max(
        analysis.node_ir_drop[static_cast<std::size_t>(b.n1)],
        analysis.node_ir_drop[static_cast<std::size_t>(b.n2)]);
    const Real current =
        std::abs(analysis.branch_current[static_cast<std::size_t>(bi)]);
    const Real w_em = options.em_safety * current / options.jmax;
    Real w_target = std::max(b.width, w_em);
    if (drop >= threshold) {
      w_target = std::max(w_target, b.width * options.uniform_factor);
    }
    const Real w_new = std::max(
        b.width,
        grid::clamp_width(w_target, pg.layer(b.layer), options.rules));
    if (w_new > b.width * (1.0 + 1e-12)) {
      pg.set_wire_width(bi, w_new);
      ++changed;
    }
  }
  return changed;
}

}  // namespace

Index update_widths(grid::PowerGrid& pg,
                    const analysis::IrAnalysisResult& analysis,
                    const WidthUpdateOptions& options,
                    WidthUpdateState& state) {
  PPDL_REQUIRE(options.ir_limit > 0.0, "ir_limit must be > 0");
  PPDL_REQUIRE(options.jmax > 0.0, "jmax must be > 0");
  PPDL_REQUIRE(static_cast<Index>(analysis.node_ir_drop.size()) ==
                   pg.node_count(),
               "analysis does not match grid");
  switch (options.strategy) {
    case WidthUpdateStrategy::kProportional:
      return update_proportional(pg, analysis, options, state);
    case WidthUpdateStrategy::kUniform:
      return update_uniform(pg, analysis, options);
    case WidthUpdateStrategy::kWorstRegion:
      return update_worst_region(pg, analysis, options);
  }
  PPDL_ENSURE(false, "unknown width-update strategy");
}

}  // namespace ppdl::planner
