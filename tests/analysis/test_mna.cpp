#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "analysis/mna.hpp"
#include "common/check.hpp"
#include "grid/perturb.hpp"
#include "support/fixtures.hpp"
#include "support/reference_csr.hpp"

namespace ppdl::analysis {
namespace {

TEST(Mna, ChainSystemHasExpectedShape) {
  const grid::PowerGrid pg = testsupport::make_chain_grid(4, 0.01);
  const MnaSystem sys = assemble_mna(pg);
  // 4 nodes, 1 pad -> 3 unknowns.
  EXPECT_EQ(sys.free_count, 3);
  EXPECT_EQ(sys.g_reduced.rows(), 3);
  EXPECT_TRUE(sys.g_reduced.is_symmetric(1e-12));
}

TEST(Mna, PadNodeMapsToMinusOne) {
  const grid::PowerGrid pg = testsupport::make_chain_grid(4, 0.01);
  const MnaSystem sys = assemble_mna(pg);
  EXPECT_EQ(sys.free_of_node[0], -1);
  EXPECT_DOUBLE_EQ(sys.pad_voltage[0], 1.8);
  for (Index v = 1; v < 4; ++v) {
    EXPECT_GE(sys.free_of_node[static_cast<std::size_t>(v)], 0);
  }
}

TEST(Mna, RhsCarriesLoadAndPadInjection) {
  const grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  const MnaSystem sys = assemble_mna(pg);
  // Node 1 adjoins the pad: rhs = g·Vdd; node 2 carries the −I load.
  const Real g = 1.0 / testsupport::chain_segment_resistance();
  const Index f1 = sys.free_of_node[1];
  const Index f2 = sys.free_of_node[2];
  EXPECT_DOUBLE_EQ(sys.rhs[static_cast<std::size_t>(f1)], g * 1.8);
  EXPECT_DOUBLE_EQ(sys.rhs[static_cast<std::size_t>(f2)], -0.05);
}

TEST(Mna, DiagonalIsDegreeWeightedConductance) {
  const grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  const MnaSystem sys = assemble_mna(pg);
  const Real g = 1.0 / testsupport::chain_segment_resistance();
  const Index f1 = sys.free_of_node[1];  // middle node touches two wires
  EXPECT_NEAR(sys.g_reduced.at(f1, f1), 2.0 * g, 1e-12);
}

TEST(Mna, ExpandSolutionRestoresPadVoltages) {
  const grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  const MnaSystem sys = assemble_mna(pg);
  std::vector<Real> reduced(static_cast<std::size_t>(sys.free_count), 1.7);
  const std::vector<Real> full = expand_solution(sys, reduced);
  EXPECT_DOUBLE_EQ(full[0], 1.8);  // pad pinned
  EXPECT_DOUBLE_EQ(full[1], 1.7);
  EXPECT_DOUBLE_EQ(full[2], 1.7);
}

TEST(Mna, GridWithoutPadsThrows) {
  grid::PowerGrid pg;
  pg.add_layer(grid::Layer{"M1", true, 0.02, 1.0});
  pg.add_node(grid::Point{0, 0}, 0);
  pg.add_node(grid::Point{100, 0}, 0);
  pg.add_wire(0, 1, 0, 100.0, 1.0);
  EXPECT_THROW(assemble_mna(pg), ContractViolation);
}

TEST(Mna, LoadOnPadNodeIsAbsorbed) {
  grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  pg.add_load(0, 1.0);  // directly on the pad
  const MnaSystem sys = assemble_mna(pg);
  // The pad supplies it; the free equations see only the original load.
  const Index f2 = sys.free_of_node[2];
  EXPECT_DOUBLE_EQ(sys.rhs[static_cast<std::size_t>(f2)], -0.05);
}

TEST(Mna, ConflictingPadVoltagesThrow) {
  grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  pg.add_pad(0, 1.5);  // same node, different voltage
  EXPECT_THROW(assemble_mna(pg), ContractViolation);
}

TEST(Mna, DuplicateIdenticalPadsAccepted) {
  grid::PowerGrid pg = testsupport::make_chain_grid(3, 0.05);
  pg.add_pad(0, 1.8);
  EXPECT_NO_THROW(assemble_mna(pg));
}

/// The stamping assemble_mna performs, in its order, converted by the
/// stable_sort reference; returns the reduced matrix and fills `rhs`.
testsupport::CsrArrays reference_assembly(const grid::PowerGrid& pg,
                                          std::vector<Real>& rhs) {
  const MnaSystem shape = assemble_mna(pg);  // pad and free-node maps only
  rhs.assign(static_cast<std::size_t>(shape.free_count), 0.0);
  for (const grid::CurrentLoad& load : pg.loads()) {
    const Index f = shape.free_of_node[static_cast<std::size_t>(load.node)];
    if (f >= 0) {
      rhs[static_cast<std::size_t>(f)] -= load.amps;
    }
  }
  linalg::CooMatrix coo(shape.free_count, shape.free_count);
  for (Index bi = 0; bi < pg.branch_count(); ++bi) {
    const grid::Branch& b = pg.branch(bi);
    const Real g = 1.0 / pg.branch_resistance(bi);
    const Index f1 = shape.free_of_node[static_cast<std::size_t>(b.n1)];
    const Index f2 = shape.free_of_node[static_cast<std::size_t>(b.n2)];
    if (f1 < 0 && f2 < 0) {
      continue;
    }
    if (f1 >= 0) {
      coo.add(f1, f1, g);
    }
    if (f2 >= 0) {
      coo.add(f2, f2, g);
    }
    if (f1 >= 0 && f2 >= 0) {
      coo.add(f1, f2, -g);
      coo.add(f2, f1, -g);
    } else if (f1 < 0) {
      rhs[static_cast<std::size_t>(f2)] +=
          g * shape.pad_voltage[static_cast<std::size_t>(b.n1)];
    } else {
      rhs[static_cast<std::size_t>(f1)] +=
          g * shape.pad_voltage[static_cast<std::size_t>(b.n2)];
    }
  }
  return testsupport::reference_from_coo(coo);
}

void expect_assembly_bytes(const grid::PowerGrid& pg) {
  std::vector<Real> rhs;
  const testsupport::CsrArrays want = reference_assembly(pg, rhs);
  const MnaSystem sys = assemble_mna(pg);
  testsupport::expect_csr_bytes(sys.g_reduced, want);
  EXPECT_TRUE(testsupport::same_bytes(std::span<const Real>(sys.rhs),
                                      std::span<const Real>(rhs)));
}

TEST(MnaBitwise, AssemblyMatchesStableSortReference) {
  expect_assembly_bytes(testsupport::make_chain_grid(6, 0.01));
  grid::PowerGrid pg = testsupport::make_tiny_benchmark().grid;
  expect_assembly_bytes(pg);
  // Parallel branches stack several contributions on one slot, and a
  // pad-to-pad resistor stamps nothing.
  grid::inject_fault(pg, grid::GridFault::kDuplicateBranch);
  const grid::Branch first = pg.branch(0);
  pg.add_wire(first.n2, first.n1, first.layer, first.length, 3.0 * first.width);
  pg.add_wire(pg.pads()[0].node, pg.pads()[1].node, 0, 5.0, 1.0);
  expect_assembly_bytes(pg);
}

}  // namespace
}  // namespace ppdl::analysis
