#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ir_solver.hpp"
#include "common/rng.hpp"
#include "grid/design_rules.hpp"
#include "planner/width_optimizer.hpp"
#include "support/fixtures.hpp"

namespace ppdl::planner {
namespace {

WidthUpdateOptions chain_options(Real ir_limit_v) {
  WidthUpdateOptions opts;
  opts.ir_limit = ir_limit_v;
  opts.jmax = 1.0;
  return opts;
}

TEST(WidthOptimizer, NoChangeWhenMarginsHold) {
  grid::PowerGrid pg = testsupport::make_chain_grid(4, 0.001);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  // Worst drop = 0.001·3·2 = 6 mV; generous 100 mV limit.
  WidthUpdateOptions opts = chain_options(0.1);
  WidthUpdateState state;
  EXPECT_EQ(update_widths(pg, res, opts, state), 0);
}

TEST(WidthOptimizer, ProportionalWidensUnderViolation) {
  grid::PowerGrid pg = testsupport::make_chain_grid(6, 0.05);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  // Worst drop = 0.05·5·2 = 500 mV; limit 50 mV → must widen.
  WidthUpdateOptions opts = chain_options(0.05);
  WidthUpdateState state;
  const Index changed = update_widths(pg, res, opts, state);
  EXPECT_GT(changed, 0);
  for (Index b = 0; b < pg.branch_count(); ++b) {
    EXPECT_GE(pg.branch(b).width, 1.0);
  }
}

TEST(WidthOptimizer, WidthsAreMonotone) {
  grid::PowerGrid pg = testsupport::make_chain_grid(6, 0.05);
  std::vector<Real> before;
  for (Index b = 0; b < pg.branch_count(); ++b) {
    before.push_back(pg.branch(b).width);
  }
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(0.01);
  WidthUpdateState state;
  update_widths(pg, res, opts, state);
  for (Index b = 0; b < pg.branch_count(); ++b) {
    EXPECT_GE(pg.branch(b).width, before[static_cast<std::size_t>(b)]);
  }
}

TEST(WidthOptimizer, RespectsMaxWidthRule) {
  grid::PowerGrid pg = testsupport::make_chain_grid(6, 10.0);  // huge load
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(1e-6);  // unreachable limit
  WidthUpdateState state;
  update_widths(pg, res, opts, state);
  const Real max_w = grid::max_width(pg.layer(0), opts.rules);
  for (Index b = 0; b < pg.branch_count(); ++b) {
    EXPECT_LE(pg.branch(b).width, max_w + 1e-9);
  }
}

TEST(WidthOptimizer, EmFloorAppliesEvenWithoutIrViolation) {
  // Density 0.5 A/µm with jmax 0.4 violates EM although IR is fine.
  grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.5);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(1e9);
  opts.jmax = 0.4;
  opts.em_safety = 1.0;
  WidthUpdateState state;
  const Index changed = update_widths(pg, res, opts, state);
  EXPECT_GT(changed, 0);
  // Sized to at least |I|/jmax = 1.25 µm.
  for (Index b = 0; b < pg.branch_count(); ++b) {
    EXPECT_GE(pg.branch(b).width, 1.25 - 1e-9);
  }
}

TEST(WidthOptimizer, UniformWidensEverythingEqually) {
  grid::PowerGrid pg = testsupport::make_chain_grid(5, 0.05);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(0.01);
  opts.strategy = WidthUpdateStrategy::kUniform;
  WidthUpdateState state;
  update_widths(pg, res, opts, state);
  for (Index b = 0; b < pg.branch_count(); ++b) {
    EXPECT_NEAR(pg.branch(b).width, opts.uniform_factor, 1e-12);
  }
}

TEST(WidthOptimizer, UniformIsNoopWithoutViolation) {
  grid::PowerGrid pg = testsupport::make_chain_grid(4, 0.0001);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(0.5);
  opts.strategy = WidthUpdateStrategy::kUniform;
  WidthUpdateState state;
  EXPECT_EQ(update_widths(pg, res, opts, state), 0);
}

TEST(WidthOptimizer, WorstRegionTargetsHotNodes) {
  grid::PowerGrid pg = testsupport::make_chain_grid(10, 0.05);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateOptions opts = chain_options(0.01);
  opts.strategy = WidthUpdateStrategy::kWorstRegion;
  opts.worst_fraction = 0.2;
  WidthUpdateState state;
  const Index changed = update_widths(pg, res, opts, state);
  EXPECT_GT(changed, 0);
  // The far-end (hottest) wire must widen; the first wire (coolest, near the
  // pad) should stay at EM-floor/initial width.
  EXPECT_GT(pg.branch(pg.branch_count() - 1).width, 1.0);
}

TEST(WidthOptimizer, StrategyNames) {
  EXPECT_EQ(to_string(WidthUpdateStrategy::kProportional), "proportional");
  EXPECT_EQ(to_string(WidthUpdateStrategy::kUniform), "uniform");
  EXPECT_EQ(to_string(WidthUpdateStrategy::kWorstRegion), "worst-region");
}

TEST(WidthOptimizer, InvalidOptionsThrow) {
  grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.01);
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  WidthUpdateState state;
  WidthUpdateOptions bad = chain_options(0.0);
  EXPECT_THROW(update_widths(pg, res, bad, state), ContractViolation);
  WidthUpdateOptions bad2 = chain_options(0.05);
  bad2.jmax = 0.0;
  EXPECT_THROW(update_widths(pg, res, bad2, state), ContractViolation);
}

// --- tapered sizing against an O(n·window) reference ------------------------

/// Stripe grouping as a std::map keyed by coordinate: keys that compare
/// equal (+0.0 and −0.0) share one entry, keyed by the first one inserted.
std::map<Real, std::vector<Index>> map_stripes(const grid::PowerGrid& pg,
                                               Index layer) {
  const bool horizontal = pg.layer(layer).horizontal;
  std::map<Real, std::vector<Index>> stripes;
  for (Index i = 0; i < pg.branch_count(); ++i) {
    const grid::Branch& b = pg.branch(i);
    if (b.kind == grid::BranchKind::kWire && b.layer == layer) {
      const grid::Point c = pg.branch_center(i);
      stripes[horizontal ? c.y : c.x].push_back(i);
    }
  }
  return stripes;
}

/// kProportional with per-stripe tapering as a direct transcription: stripes
/// sorted by comparing branch_center()s, and each segment's target the
/// running std::max from 0.0 over its whole window.
Index reference_update(grid::PowerGrid& pg,
                       const analysis::IrAnalysisResult& analysis,
                       const WidthUpdateOptions& options,
                       WidthUpdateState& state) {
  if (state.j_target <= 0.0) {
    state.j_target = options.jmax / options.em_safety;
  }
  const bool violating = analysis.worst_ir_drop > options.ir_limit;
  if (violating) {
    const Real ratio = options.ir_limit / analysis.worst_ir_drop;
    state.j_target *= std::max(ratio * 0.95, options.max_tighten);
  }
  if (state.stripes.empty()) {
    for (Index layer = 0; layer < pg.layer_count(); ++layer) {
      const bool horizontal = pg.layer(layer).horizontal;
      for (auto& [coord, branches] : map_stripes(pg, layer)) {
        std::sort(branches.begin(), branches.end(), [&](Index a, Index b) {
          const grid::Point ca = pg.branch_center(a);
          const grid::Point cb = pg.branch_center(b);
          return horizontal ? ca.x < cb.x : ca.y < cb.y;
        });
        state.stripes.push_back(std::move(branches));
      }
    }
  }
  std::vector<Real> target(static_cast<std::size_t>(pg.branch_count()), -1.0);
  for (int attempt = 0; attempt < 64; ++attempt) {
    for (const std::vector<Index>& stripe : state.stripes) {
      const auto n = static_cast<Index>(stripe.size());
      const Index window = std::max<Index>(
          1, static_cast<Index>(options.taper_window_fraction *
                                static_cast<Real>(n)));
      for (Index i = 0; i < n; ++i) {
        Real smoothed = 0.0;
        for (Index k = std::max<Index>(0, i - window);
             k <= std::min<Index>(n - 1, i + window); ++k) {
          const Real current = std::abs(analysis.branch_current[
              static_cast<std::size_t>(stripe[static_cast<std::size_t>(k)])]);
          smoothed = std::max(smoothed, current / state.j_target);
        }
        target[static_cast<std::size_t>(stripe[static_cast<std::size_t>(i)])] =
            smoothed;
      }
    }
    Index changed = 0;
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
  return 0;
}

void expect_same_sizing(const grid::PowerGrid& pg,
                        const analysis::IrAnalysisResult& analysis,
                        const WidthUpdateOptions& options) {
  grid::PowerGrid got = pg;
  grid::PowerGrid want = pg;
  WidthUpdateState got_state;
  WidthUpdateState want_state;
  for (int call = 0; call < 2; ++call) {  // fresh stripes, then reused ones
    EXPECT_EQ(update_widths(got, analysis, options, got_state),
              reference_update(want, analysis, options, want_state));
    EXPECT_EQ(std::memcmp(&got_state.j_target, &want_state.j_target,
                          sizeof(Real)),
              0);
    EXPECT_EQ(got_state.stripes, want_state.stripes);
    for (Index bi = 0; bi < pg.branch_count(); ++bi) {
      const Real a = got.branch(bi).width;
      const Real b = want.branch(bi).width;
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(Real)), 0)
          << "branch " << bi << ": " << a << " vs " << b;
    }
  }
}

/// One horizontal and one vertical layer. Horizontal stripes: y = 0 with six
/// segments, two of them parallel copies (equal centres); y = 10 with a
/// single segment; y = 20 with 45 segments added out of order, five of them
/// parallel copies (long enough that std::sort does not fall back to its
/// stable insertion sort, so the order among equal centres is its own).
/// Vertical stripes: x = 0 with two segments, x = 20 with three.
grid::PowerGrid stripe_grid() {
  grid::PowerGrid pg;
  pg.set_name("stripes");
  pg.set_die(grid::Rect{0.0, 0.0, 60.0, 30.0});
  const Index h = pg.add_layer(grid::Layer{"M1", true, 0.02, 1.0});
  const Index v = pg.add_layer(grid::Layer{"M2", false, 0.02, 1.0});
  std::vector<Index> row;
  for (Index i = 0; i < 6; ++i) {
    row.push_back(pg.add_node(grid::Point{10.0 * static_cast<Real>(i), 0.0}, h));
  }
  for (Index i = 4; i >= 0; --i) {  // added right to left
    pg.add_wire(row[static_cast<std::size_t>(i)],
                row[static_cast<std::size_t>(i) + 1], h, 10.0, 1.0);
  }
  pg.add_wire(row[2], row[1], h, 10.0, 1.0);  // parallel copy
  const Index a = pg.add_node(grid::Point{0.0, 10.0}, h);
  const Index b = pg.add_node(grid::Point{10.0, 10.0}, h);
  pg.add_wire(a, b, h, 10.0, 1.0);
  std::vector<Index> line;
  for (Index i = 0; i < 41; ++i) {
    line.push_back(
        pg.add_node(grid::Point{10.0 * static_cast<Real>(i), 20.0}, h));
  }
  for (Index k = 0; k < 40; ++k) {
    const auto i = static_cast<std::size_t>((k * 17) % 40);
    pg.add_wire(line[i], line[i + 1], h, 10.0, 1.0);
    if (k % 8 == 3) {
      pg.add_wire(line[i + 1], line[i], h, 10.0, 1.0);
    }
  }
  std::vector<Index> col;
  for (Index i = 0; i < 4; ++i) {
    col.push_back(pg.add_node(grid::Point{20.0, 10.0 * static_cast<Real>(i)}, v));
  }
  pg.add_wire(col[2], col[3], v, 10.0, 1.0);
  pg.add_wire(col[0], col[1], v, 10.0, 1.0);
  pg.add_wire(col[1], col[2], v, 10.0, 1.0);
  const Index p = pg.add_node(grid::Point{0.0, 0.0}, v);
  const Index q = pg.add_node(grid::Point{0.0, 10.0}, v);
  pg.add_wire(p, q, v, 10.0, 1.0);
  pg.add_via(row[0], p, v, 0.1);
  pg.add_pad(row[0], 1.8);
  return pg;
}

analysis::IrAnalysisResult fabricated_analysis(const grid::PowerGrid& pg,
                                               U64 seed, Real worst_drop) {
  Rng rng(seed);
  analysis::IrAnalysisResult a;
  a.node_ir_drop.assign(static_cast<std::size_t>(pg.node_count()), 0.0);
  a.worst_ir_drop = worst_drop;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    a.branch_current.push_back(rng.uniform(-3.0, 3.0));
  }
  a.branch_current[1] = 0.0;
  a.branch_current[2] = -0.0;
  a.branch_current[4] = a.branch_current[5];  // tie inside a stripe
  return a;
}

TEST(WidthUpdateBitwise, TaperedSizingMatchesWindowScanReference) {
  const grid::PowerGrid pg = stripe_grid();
  for (const Real fraction : {0.0, 0.15, 0.4, 3.0}) {
    for (const Real worst : {0.01, 0.2}) {  // within and over the limit
      WidthUpdateOptions opts = chain_options(0.05);
      opts.taper_window_fraction = fraction;
      SCOPED_TRACE(fraction);
      expect_same_sizing(pg, fabricated_analysis(pg, 5, worst), opts);
      analysis::IrAnalysisResult odd = fabricated_analysis(pg, 6, worst);
      // A NaN current never wins a window: once the window's larger
      // requirement slides out, the next one behind the NaN takes over.
      odd.branch_current[0] = std::numeric_limits<Real>::quiet_NaN();
      odd.branch_current[20] = std::numeric_limits<Real>::quiet_NaN();
      odd.branch_current[3] = std::numeric_limits<Real>::infinity();
      expect_same_sizing(pg, odd, opts);
    }
  }
}

TEST(WidthUpdateBitwise, GeneratedGridMatchesWindowScanReference) {
  const grid::PowerGrid pg = testsupport::make_tiny_benchmark().grid;
  const analysis::IrAnalysisResult res = analysis::analyze_ir_drop(pg);
  ASSERT_TRUE(res.converged);
  for (const Real limit : {0.5 * res.worst_ir_drop, 2.0 * res.worst_ir_drop}) {
    WidthUpdateOptions opts = chain_options(limit);
    expect_same_sizing(pg, res, opts);
    opts.taper_window_fraction = 0.6;
    expect_same_sizing(pg, res, opts);
  }
}

/// check_design_rules' stripe checks (spacing, Wcore) over map_stripes.
std::vector<std::string> map_stripe_violations(const grid::PowerGrid& pg,
                                               const grid::DesignRules& rules) {
  std::vector<std::string> out;
  for (Index l = 0; l < pg.layer_count(); ++l) {
    const auto stripes = map_stripes(pg, l);
    if (stripes.empty()) {
      continue;
    }
    const Real wcore = pg.layer(l).horizontal ? pg.die().height()
                                              : pg.die().width();
    Real budget = 0.0;
    Real prev_coord = 0.0;
    Real prev_half = 0.0;
    bool first = true;
    for (const auto& [coord, branches] : stripes) {
      Real width = 0.0;
      for (const Index bi : branches) {
        width = std::max(width, pg.branch(bi).width);
      }
      budget += width + rules.min_spacing;
      const Real gap = (coord - width / 2) - (prev_coord + prev_half);
      if (!first && gap < rules.min_spacing - 1e-9) {
        std::ostringstream os;
        os << "layer " << pg.layer(l).name << " stripes at " << prev_coord
           << " and " << coord << " spaced " << gap << " < "
           << rules.min_spacing;
        out.push_back(os.str());
      }
      prev_coord = coord;
      prev_half = width / 2;
      first = false;
    }
    if (budget > wcore + 1e-9) {
      std::ostringstream os;
      os << "layer " << pg.layer(l).name << " Σ(w+s) = " << budget
         << " exceeds Wcore = " << wcore;
      out.push_back(os.str());
    }
  }
  return out;
}

/// Stripes at −0.0 and +0.0 (one stripe, keyed by its first wire's sign),
/// wires added out of coordinate order, a zero wire that follows another
/// stripe's wire and one that follows a zero wire, and a parallel copy, on
/// one horizontal and one vertical layer.
grid::PowerGrid signed_zero_grid() {
  grid::PowerGrid pg;
  pg.set_name("signed-zero");
  pg.set_die(grid::Rect{-20.0, -20.0, 20.0, 20.0});
  const Index h = pg.add_layer(grid::Layer{"M1", true, 0.02, 1.0});
  const Index v = pg.add_layer(grid::Layer{"M2", false, 0.02, 1.0});
  const auto wire = [&](Real x0, Real y0, Real x1, Real y1, Index layer,
                        Real width) {
    pg.add_wire(pg.add_node(grid::Point{x0, y0}, layer),
                pg.add_node(grid::Point{x1, y1}, layer), layer, 10.0, width);
  };
  wire(0.0, 5.0, 10.0, 5.0, h, 1.0);
  wire(0.0, -0.0, 10.0, -0.0, h, 1.0);  // centre y = −0.0, first at zero
  wire(0.0, -3.0, 10.0, -3.0, h, 1.0);
  wire(-10.0, 0.0, 0.0, 0.0, h, 2.5);   // centre y = +0.0
  wire(10.0, -0.0, 20.0, 0.0, h, 1.0);  // −0.0 + 0.0 = +0.0
  wire(0.0, 5.0, 10.0, 5.0, h, 4.0);    // parallel copy
  wire(0.0, 0.0, 0.0, 10.0, v, 1.0);    // centre x = +0.0, first at zero
  wire(7.0, 0.0, 7.0, 10.0, v, 3.0);
  wire(-0.0, -10.0, -0.0, 0.0, v, 1.0);
  wire(-0.0, 10.0, 0.0, 20.0, v, 1.0);
  const Index pad = pg.add_node(grid::Point{-20.0, -20.0}, h);
  pg.add_pad(pad, 1.8);
  return pg;
}

TEST(WidthUpdateBitwise, StripeGroupingMatchesMapReference) {
  for (const grid::PowerGrid& g :
       {signed_zero_grid(), stripe_grid(),
        testsupport::make_tiny_benchmark().grid}) {
    for (Index l = 0; l < g.layer_count(); ++l) {
      const std::vector<grid::Stripe> got = grid::stripes_of_layer(g, l);
      const auto want = map_stripes(g, l);
      SCOPED_TRACE(testing::Message() << g.name() << " layer " << l);
      ASSERT_EQ(got.size(), want.size());
      auto it = want.begin();
      for (const grid::Stripe& stripe : got) {
        EXPECT_EQ(std::memcmp(&stripe.coord, &it->first, sizeof(Real)), 0)
            << stripe.coord << " vs " << it->first;
        EXPECT_EQ(stripe.branches, it->second);
        ++it;
      }
    }
  }
  const grid::PowerGrid pg = signed_zero_grid();
  // The −0.0 key is visible: it is printed in the spacing violation.
  ASSERT_EQ(grid::stripes_of_layer(pg, 0).size(), 3u);
  EXPECT_TRUE(std::signbit(grid::stripes_of_layer(pg, 0)[1].coord));

  for (const Real spacing : {2.0, 6.0}) {
    grid::DesignRules rules;
    rules.min_spacing = spacing;
    std::vector<std::string> got;
    for (const grid::RuleViolation& v : grid::check_design_rules(pg, rules)) {
      if (v.type == grid::ViolationType::kSpacing ||
          v.type == grid::ViolationType::kWcore) {
        got.push_back(v.detail);
      }
    }
    EXPECT_EQ(got, map_stripe_violations(pg, rules)) << "spacing " << spacing;
    EXPECT_FALSE(got.empty());
  }

  const analysis::IrAnalysisResult res = fabricated_analysis(pg, 9, 0.2);
  for (const Real fraction : {0.0, 0.5}) {
    WidthUpdateOptions opts = chain_options(0.05);
    opts.taper_window_fraction = fraction;
    expect_same_sizing(pg, res, opts);
  }
}

}  // namespace
}  // namespace ppdl::planner
