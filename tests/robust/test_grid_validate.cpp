// Structural grid validation: typed defects, repair of the repairable,
// rejection of the fatal — driven through the fault-injection harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/ir_solver.hpp"
#include "common/rng.hpp"
#include "grid/validate.hpp"
#include "support/fault_injection.hpp"
#include "support/fixtures.hpp"

namespace ppdl::grid {
namespace {

using testsupport::faulty_grid;
using testsupport::make_chain_grid;

bool has_defect(const GridValidationReport& report, GridDefectKind kind) {
  for (const GridDefect& d : report.defects) {
    if (d.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(GridValidate, HealthyGridIsClean) {
  const PowerGrid pg = make_chain_grid(8, 0.01);
  const GridValidationReport report = validate_grid(pg);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.blocks_assembly());
  EXPECT_TRUE(report.defects.empty());
}

TEST(GridValidate, FloatingLoadIsFatal) {
  const PowerGrid pg = faulty_grid(GridFault::kFloatingLoad);
  const GridValidationReport report = validate_grid(pg);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.blocks_assembly());
  EXPECT_TRUE(has_defect(report, GridDefectKind::kUnreachableLoad));
  EXPECT_NE(report.summary().find("unreachable-load"), std::string::npos);
}

TEST(GridValidate, AnalysisRejectsFloatingLoadWithTypedError) {
  const PowerGrid pg = faulty_grid(GridFault::kFloatingLoad);
  try {
    analysis::analyze_ir_drop(pg);
    FAIL() << "expected GridDefectError";
  } catch (const GridDefectError& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_TRUE(has_defect(e.report(), GridDefectKind::kUnreachableLoad));
  }
}

TEST(GridValidate, DisconnectedIslandIsRepairable) {
  const PowerGrid pg = faulty_grid(GridFault::kDisconnectedIsland);
  const GridValidationReport report = validate_grid(pg);
  EXPECT_TRUE(report.ok());  // no load is stranded, so not fatal
  EXPECT_TRUE(report.blocks_assembly());
  EXPECT_GT(report.repairable_count, 0);
  EXPECT_TRUE(has_defect(report, GridDefectKind::kUnreachableNode));
}

TEST(GridValidate, RepairDropsIslandAndPreservesElectricalIntent) {
  const Index nodes = 8;
  const Real amps = 0.01;
  const PowerGrid healthy = make_chain_grid(nodes, amps);
  const PowerGrid broken = faulty_grid(GridFault::kDisconnectedIsland, nodes,
                                       amps);

  std::vector<std::string> actions;
  const PowerGrid repaired = repaired_copy(broken, &actions);
  EXPECT_FALSE(actions.empty());
  EXPECT_EQ(repaired.node_count(), healthy.node_count());
  EXPECT_FALSE(validate_grid(repaired).blocks_assembly());

  // The repaired grid solves to the same voltages as the healthy original.
  const auto want = analysis::analyze_ir_drop(healthy);
  const auto got = analysis::analyze_ir_drop(repaired);
  ASSERT_TRUE(got.converged);
  EXPECT_NEAR(got.worst_ir_drop, want.worst_ir_drop, 1e-9);
}

TEST(GridValidate, DuplicateBranchIsWarningOnly) {
  const PowerGrid pg = faulty_grid(GridFault::kDuplicateBranch);
  const GridValidationReport report = validate_grid(pg);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.blocks_assembly());  // parallel resistors still solve
  EXPECT_TRUE(has_defect(report, GridDefectKind::kDuplicateBranch));

  // Analysis accepts the grid; the duplicate halves the local resistance.
  const auto result = analysis::analyze_ir_drop(pg);
  EXPECT_TRUE(result.converged);
}

TEST(GridValidate, RepairMergesDuplicateBranchesInParallel) {
  const PowerGrid pg = faulty_grid(GridFault::kDuplicateBranch);
  const PowerGrid repaired = repaired_copy(pg);
  EXPECT_EQ(repaired.branch_count(), pg.branch_count() - 1);
  EXPECT_FALSE(has_defect(validate_grid(repaired),
                          GridDefectKind::kDuplicateBranch));

  // Parallel merge preserves the solve exactly.
  const auto want = analysis::analyze_ir_drop(pg);
  const auto got = analysis::analyze_ir_drop(repaired);
  EXPECT_NEAR(got.worst_ir_drop, want.worst_ir_drop, 1e-9);
}

TEST(GridValidate, ExtremeConductanceIsStructurallyAcceptable) {
  // A nine-decade conductance contrast is a conditioning problem, not a
  // structural one: validation passes and the ladder owns the recovery.
  const PowerGrid pg = faulty_grid(GridFault::kExtremeConductance);
  EXPECT_FALSE(validate_grid(pg).blocks_assembly());
  const auto result = analysis::analyze_ir_drop(pg);
  EXPECT_TRUE(result.converged);
}

TEST(GridValidate, EmptyGridIsFatal) {
  const PowerGrid pg;
  const GridValidationReport report = validate_grid(pg);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_defect(report, GridDefectKind::kNoNodes));
}

TEST(GridValidate, MissingPadsAreFatal) {
  PowerGrid pg = make_chain_grid(4, 0.01);
  PowerGrid no_pads;
  no_pads.set_name("no-pads");
  no_pads.set_vdd(pg.vdd());
  no_pads.set_die(pg.die());
  no_pads.add_layer(pg.layer(0));
  for (Index i = 0; i < pg.node_count(); ++i) {
    no_pads.add_node(pg.node(i).pos, pg.node(i).layer);
  }
  for (Index b = 0; b < pg.branch_count(); ++b) {
    const Branch& br = pg.branch(b);
    no_pads.add_wire(br.n1, br.n2, br.layer, br.length, br.width);
  }
  no_pads.add_load(pg.node_count() - 1, 0.01);
  const GridValidationReport report = validate_grid(no_pads);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_defect(report, GridDefectKind::kNoPads));
}

TEST(GridValidate, DanglingPadIsAWarningOnly) {
  // A pad bonded to a branchless node is a packaging defect worth flagging,
  // but it must not block assembly: the node is eliminated before MNA.
  const PowerGrid clean = make_chain_grid(6, 0.01);
  PowerGrid pg = clean;
  inject_fault(pg, GridFault::kDanglingPad);
  ASSERT_EQ(pg.node_count(), clean.node_count() + 1);

  const GridValidationReport report = validate_grid(pg);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.blocks_assembly());
  EXPECT_EQ(report.warning_count, 1);
  EXPECT_TRUE(has_defect(report, GridDefectKind::kDanglingPad));
  EXPECT_NE(report.summary().find("dangling-pad"), std::string::npos);

  // The defect is benign: analysis still runs and matches the clean grid.
  const auto faulty = analysis::analyze_ir_drop(pg);
  const auto baseline = analysis::analyze_ir_drop(clean);
  ASSERT_TRUE(faulty.converged);
  ASSERT_TRUE(baseline.converged);
  EXPECT_DOUBLE_EQ(faulty.worst_ir_drop, baseline.worst_ir_drop);
}

TEST(GridValidate, ZeroConductanceViaClusterIsFatal) {
  // Opening a via cluster (etch failure) leaves infinite-resistance
  // branches; every one must surface as a fatal defect.
  auto bench = testsupport::make_tiny_benchmark();
  const GridValidationReport before = validate_grid(bench.grid);
  ASSERT_TRUE(before.ok());

  inject_fault(bench.grid, GridFault::kZeroConductanceVias);
  const GridValidationReport report = validate_grid(bench.grid);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.blocks_assembly());
  EXPECT_GE(report.fatal_count, 1);
  EXPECT_TRUE(has_defect(report, GridDefectKind::kNonPositiveConductance));
}

TEST(GridValidate, ZeroConductanceViasInjectionIsDeterministic) {
  // Two injections from the same benchmark open exactly the same branches.
  auto a = testsupport::make_tiny_benchmark();
  auto b = testsupport::make_tiny_benchmark();
  inject_fault(a.grid, GridFault::kZeroConductanceVias);
  inject_fault(b.grid, GridFault::kZeroConductanceVias);
  ASSERT_EQ(a.grid.branch_count(), b.grid.branch_count());
  const auto open = [](const Branch& br) {
    return br.kind == BranchKind::kVia && std::isinf(br.via_resistance);
  };
  Index opened = 0;
  for (Index bi = 0; bi < a.grid.branch_count(); ++bi) {
    EXPECT_EQ(open(a.grid.branch(bi)), open(b.grid.branch(bi)));
    if (open(a.grid.branch(bi))) {
      ++opened;
    }
  }
  EXPECT_GE(opened, 1);
}

TEST(GridValidate, AnalysisRejectsOpenViaClusterWithTypedError) {
  auto bench = testsupport::make_tiny_benchmark();
  inject_fault(bench.grid, GridFault::kZeroConductanceVias);
  try {
    analysis::analyze_ir_drop(bench.grid);
    FAIL() << "expected GridDefectError";
  } catch (const GridDefectError& e) {
    EXPECT_TRUE(has_defect(e.report(),
                           GridDefectKind::kNonPositiveConductance));
  }
}

TEST(GridValidate, ValidationCanBeDisabled) {
  // With validation off, the broken grid reaches the solver, which reports
  // a failed (non-converged) solve instead of a typed defect.
  const PowerGrid pg = faulty_grid(GridFault::kFloatingLoad);
  analysis::IrAnalysisOptions opts;
  opts.validate_grid = false;
  const auto result = analysis::analyze_ir_drop(pg, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.solve_report.converged);
  EXPECT_FALSE(result.solve_report.summary().empty());
}

// --- report equality with an ordered-map reference ---------------------------

void reference_add(GridValidationReport& report, GridDefect defect) {
  switch (defect.severity) {
    case DefectSeverity::kFatal:
      ++report.fatal_count;
      break;
    case DefectSeverity::kRepairable:
      ++report.repairable_count;
      break;
    case DefectSeverity::kWarning:
      ++report.warning_count;
      break;
  }
  report.defects.push_back(std::move(defect));
}

/// validate_grid as written over std::map and vector-of-vector adjacency:
/// the defects, their order and their detail text validate_grid must keep.
GridValidationReport reference_validate(const PowerGrid& pg) {
  GridValidationReport report;
  if (pg.layer_count() == 0) {
    reference_add(report, {GridDefectKind::kNoLayers, DefectSeverity::kFatal,
                           -1, -1, "grid has no metal layers"});
  }
  if (pg.node_count() == 0) {
    reference_add(report, {GridDefectKind::kNoNodes, DefectSeverity::kFatal,
                           -1, -1, "grid has no nodes"});
    return report;
  }
  if (pg.pad_count() == 0) {
    reference_add(report, {GridDefectKind::kNoPads, DefectSeverity::kFatal,
                           -1, -1, "no supply pad pins any voltage"});
  }
  std::map<Index, Real> pinned;
  for (const Pad& pad : pg.pads()) {
    const auto [it, inserted] = pinned.emplace(pad.node, pad.voltage);
    if (!inserted && std::abs(it->second - pad.voltage) > 1e-12) {
      std::ostringstream os;
      os << it->second << " V vs " << pad.voltage << " V";
      reference_add(report, {GridDefectKind::kConflictingPadVoltages,
                             DefectSeverity::kFatal, pad.node, -1, os.str()});
    }
  }
  std::map<std::pair<Index, Index>, Index> first_branch_of_pair;
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const Branch& b = pg.branch(bi);
    const Real resistance = pg.branch_resistance(bi);
    if (!std::isfinite(resistance) || resistance <= 0.0) {
      std::ostringstream os;
      os << "resistance " << resistance << " ohm";
      reference_add(report, {GridDefectKind::kNonPositiveConductance,
                             DefectSeverity::kFatal, -1, bi, os.str()});
    }
    const auto [it, inserted] = first_branch_of_pair.emplace(
        std::pair{std::min(b.n1, b.n2), std::max(b.n1, b.n2)}, bi);
    if (!inserted) {
      std::ostringstream os;
      os << "parallel with branch " << it->second;
      reference_add(report, {GridDefectKind::kDuplicateBranch,
                             DefectSeverity::kWarning, -1, bi, os.str()});
    }
  }
  const auto n = static_cast<std::size_t>(pg.node_count());
  std::vector<bool> has_load(n, false);
  for (const CurrentLoad& load : pg.loads()) {
    has_load[static_cast<std::size_t>(load.node)] = true;
    if (!std::isfinite(load.amps)) {
      reference_add(report, {GridDefectKind::kNonFiniteLoad,
                             DefectSeverity::kFatal, load.node, -1,
                             "load current is NaN/Inf"});
    }
  }
  std::vector<std::vector<Index>> adj(n);
  for (const Branch& b : pg.branches()) {
    adj[static_cast<std::size_t>(b.n1)].push_back(b.n2);
    adj[static_cast<std::size_t>(b.n2)].push_back(b.n1);
  }
  std::vector<bool> reach(n, false);
  std::queue<Index> queue;
  for (const Pad& pad : pg.pads()) {
    if (!reach[static_cast<std::size_t>(pad.node)]) {
      reach[static_cast<std::size_t>(pad.node)] = true;
      queue.push(pad.node);
    }
  }
  while (!queue.empty()) {
    const Index v = queue.front();
    queue.pop();
    for (const Index u : adj[static_cast<std::size_t>(v)]) {
      if (!reach[static_cast<std::size_t>(u)]) {
        reach[static_cast<std::size_t>(u)] = true;
        queue.push(u);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (reach[v]) {
      continue;
    }
    const auto node = static_cast<Index>(v);
    if (has_load[v]) {
      reference_add(report, {GridDefectKind::kUnreachableLoad,
                             DefectSeverity::kFatal, node, -1,
                             "load has no path to any pad — MNA system is "
                             "singular"});
    } else if (adj[v].empty()) {
      reference_add(report, {GridDefectKind::kIsolatedNode,
                             DefectSeverity::kRepairable, node, -1,
                             "node has no branches (zero conductance row)"});
    } else {
      reference_add(report, {GridDefectKind::kUnreachableNode,
                             DefectSeverity::kRepairable, node, -1,
                             "connected component contains no pad"});
    }
  }
  for (const Pad& pad : pg.pads()) {
    if (adj[static_cast<std::size_t>(pad.node)].empty()) {
      reference_add(report, {GridDefectKind::kDanglingPad,
                             DefectSeverity::kWarning, pad.node, -1,
                             "supply pad bonded to a branchless node"});
    }
  }
  return report;
}

void expect_same_report(const PowerGrid& pg) {
  const GridValidationReport got = validate_grid(pg);
  const GridValidationReport want = reference_validate(pg);
  EXPECT_EQ(got.fatal_count, want.fatal_count);
  EXPECT_EQ(got.repairable_count, want.repairable_count);
  EXPECT_EQ(got.warning_count, want.warning_count);
  ASSERT_EQ(got.defects.size(), want.defects.size()) << want.summary();
  for (std::size_t i = 0; i < got.defects.size(); ++i) {
    const GridDefect& g = got.defects[i];
    const GridDefect& w = want.defects[i];
    EXPECT_EQ(g.kind, w.kind) << "defect " << i;
    EXPECT_EQ(g.severity, w.severity) << "defect " << i;
    EXPECT_EQ(g.node, w.node) << "defect " << i;
    EXPECT_EQ(g.branch, w.branch) << "defect " << i;
    EXPECT_EQ(g.detail, w.detail) << "defect " << i;
  }
  EXPECT_EQ(got.summary(), want.summary());
}

/// Two-layer grid on a coarse lattice with random wires (repeated node
/// pairs in either orientation included), vias, pads and loads; some nodes
/// stay isolated or in padless components.
PowerGrid seeded_grid(U64 seed) {
  Rng rng(seed);
  PowerGrid pg;
  pg.set_name("seeded");
  pg.set_vdd(1.8);
  pg.set_die(Rect{0.0, 0.0, 100.0, 100.0});
  const Index m1 = pg.add_layer(Layer{"M1", true, 0.02, 1.0});
  const Index m2 = pg.add_layer(Layer{"M2", false, 0.02, 1.0});
  const Index per_layer = 24 + static_cast<Index>(rng.uniform(0.0, 16.0));
  for (const Index layer : {m1, m2}) {
    for (Index i = 0; i < per_layer; ++i) {
      pg.add_node(Point{10.0 * static_cast<Real>(i % 6),
                        10.0 * static_cast<Real>(i / 6)},
                  layer);
    }
  }
  const auto pick = [&](Index lo, Index count) {
    return lo + std::min(count - 1,
                         static_cast<Index>(rng.uniform(
                             0.0, static_cast<Real>(count))));
  };
  for (Index w = 0; w < 2 * per_layer; ++w) {
    const Index layer = rng.uniform() < 0.5 ? m1 : m2;
    const Index a = pick(layer * per_layer, per_layer / 2);
    const Index b = pick(layer * per_layer, per_layer / 2);
    if (a != b) {
      pg.add_wire(a, b, layer, 10.0, rng.uniform(0.5, 2.0));
    }
  }
  for (Index v = 0; v < per_layer / 3; ++v) {
    const Index i = pick(0, per_layer);
    pg.add_via(i, i + per_layer, m2, rng.uniform(0.1, 1.0));
  }
  for (Index p = 0; p < 3; ++p) {
    pg.add_pad(pick(per_layer, per_layer), pg.vdd());
  }
  for (Index l = 0; l < per_layer / 2; ++l) {
    pg.add_load(pick(0, 2 * per_layer), rng.uniform(0.0, 1e-3));
  }
  return pg;
}

TEST(GridValidateReport, MatchesOrderedMapReferenceOnSeededGrids) {
  constexpr GridFault kFaults[] = {
      GridFault::kFloatingLoad,       GridFault::kDisconnectedIsland,
      GridFault::kDuplicateBranch,    GridFault::kExtremeConductance,
      GridFault::kDanglingPad,        GridFault::kZeroConductanceVias,
  };
  Index duplicates = 0;
  Index unreachable = 0;
  for (U64 seed = 1; seed <= 12; ++seed) {
    const PowerGrid clean = seeded_grid(seed);
    expect_same_report(clean);
    const GridValidationReport report = validate_grid(clean);
    duplicates += has_defect(report, GridDefectKind::kDuplicateBranch);
    unreachable += has_defect(report, GridDefectKind::kUnreachableNode);
    for (const GridFault fault : kFaults) {
      PowerGrid pg = clean;
      inject_fault(pg, fault);
      SCOPED_TRACE(to_string(fault));
      expect_same_report(pg);
    }
    PowerGrid all = clean;
    for (const GridFault fault : kFaults) {
      inject_fault(all, fault);
    }
    expect_same_report(all);
  }
  // The seeds reach the paths under test without injection too.
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(unreachable, 0);
}

TEST(GridValidateReport, ParallelBranchesPadsAndNonFiniteLoads) {
  PowerGrid pg = seeded_grid(99);
  const Index a = 1;
  const Index b = 2;
  const Index c = 3;
  // Three mutually parallel branches, one of them a via, and a duplicate
  // with swapped endpoints on a second pair.
  pg.add_wire(a, b, 0, 10.0, 1.0);
  pg.add_wire(b, a, 0, 10.0, 2.0);
  pg.add_via(a, b, 1, 0.5);
  pg.add_wire(c, a, 0, 10.0, 1.0);
  pg.add_wire(a, c, 0, 10.0, 1.0);
  // Agreeing and conflicting pads on one node; the last one agrees with the
  // first again.
  pg.add_pad(c, 1.8);
  pg.add_pad(c, 1.8);
  pg.add_pad(c, 1.7);
  pg.add_pad(c, 1.8);
  // NaN (0 A scaled by +inf) and +inf loads.
  pg.add_load(a, 0.0);
  pg.scale_load(pg.load_count() - 1, std::numeric_limits<Real>::infinity());
  pg.add_load(b, std::numeric_limits<Real>::infinity());
  ASSERT_TRUE(std::isnan(pg.loads()[static_cast<std::size_t>(
      pg.load_count() - 2)].amps));
  expect_same_report(pg);

  const GridValidationReport report = validate_grid(pg);
  EXPECT_TRUE(has_defect(report, GridDefectKind::kConflictingPadVoltages));
  EXPECT_TRUE(has_defect(report, GridDefectKind::kNonFiniteLoad));
  EXPECT_TRUE(has_defect(report, GridDefectKind::kDuplicateBranch));
}

TEST(GridValidateReport, EmptyAndPadlessGrids) {
  expect_same_report(PowerGrid{});
  PowerGrid bare;
  bare.add_layer(Layer{"M1", true, 0.02, 1.0});
  expect_same_report(bare);
  bare.add_node(Point{0.0, 0.0}, 0);
  bare.add_node(Point{1.0, 0.0}, 0);
  bare.add_wire(0, 1, 0, 1.0, 1.0);
  bare.add_load(1, 1e-3);
  expect_same_report(bare);
}

}  // namespace
}  // namespace ppdl::grid
