// Property-based randomized harness for the preconditioner family.
//
// Random SPD M-matrix grids (the structure power-grid conductance matrices
// have) are generated from seeded RNG streams across sizes and conditioning
// regimes, and every PreconditionerKind must uphold the PCG contract on all
// of them:
//   * M⁻¹ acts as a symmetric positive operator: ⟨z, r'⟩ = ⟨z', r⟩ and
//     ⟨z, r⟩ > 0 for z = M⁻¹r,
//   * preconditioned CG never needs more iterations than plain CG,
//   * the level-scheduled IC(0) solve is bit-for-bit identical to the
//     serial IC(0) solve — at every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "linalg/cg.hpp"
#include "linalg/ordering.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/vector_ops.hpp"
#include "support/random_grid.hpp"

namespace ppdl::linalg {
namespace {

using testsupport::GridCase;
using testsupport::random_grid_matrix;
using testsupport::random_vector;

constexpr PreconditionerKind kAllKinds[] = {
    PreconditionerKind::kNone, PreconditionerKind::kJacobi,
    PreconditionerKind::kIc0, PreconditionerKind::kIc0Level,
    PreconditionerKind::kChebyshev};

// Sizes × conditioning sweep: small/medium grids, mild to harsh spreads.
const GridCase kCases[] = {
    {4, 4, 11, 2.0, 0.5},    {5, 9, 22, 10.0, 0.2},
    {9, 9, 33, 100.0, 0.1},  {12, 7, 44, 1000.0, 0.05},
    {16, 16, 55, 50.0, 0.03},
};

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

void expect_bitwise_equal(const std::vector<Real>& a,
                          const std::vector<Real>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles is exact — bit-identity is the contract.
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST(PrecondProperties, ApplyActsAsSymmetricPositiveOperator) {
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const Index n = a.rows();
    const std::vector<Real> r = random_vector(n, c.seed ^ 0xabcdULL);
    const std::vector<Real> s = random_vector(n, c.seed ^ 0x1234ULL);
    for (const PreconditionerKind kind : kAllKinds) {
      const auto p = make_preconditioner(kind, a);
      std::vector<Real> minv_r(static_cast<std::size_t>(n));
      std::vector<Real> minv_s(static_cast<std::size_t>(n));
      p->apply(r, minv_r);
      p->apply(s, minv_s);
      const Real rms = dot(r, minv_s);
      const Real smr = dot(s, minv_r);
      const Real scale = std::max({std::abs(rms), std::abs(smr), 1.0});
      EXPECT_NEAR(rms, smr, 1e-9 * scale)
          << p->name() << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed;
      EXPECT_GT(dot(r, minv_r), 0.0) << p->name();
      EXPECT_GT(dot(s, minv_s), 0.0) << p->name();
    }
  }
}

TEST(PrecondProperties, PreconditionedCgNeverNeedsMoreIterations) {
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const std::vector<Real> x_true = random_vector(a.rows(), c.seed + 7);
    const std::vector<Real> b = a.multiply(x_true);

    CgOptions plain;
    plain.preconditioner = PreconditionerKind::kNone;
    plain.stagnation_window = 0;  // let plain CG run to its real count
    const CgResult base = conjugate_gradient(a, b, plain);

    for (const PreconditionerKind kind : kAllKinds) {
      CgOptions opts = plain;
      opts.preconditioner = kind;
      const CgResult r = conjugate_gradient(a, b, opts);
      EXPECT_TRUE(r.converged)
          << to_string(kind) << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed << ": " << to_string(r.status);
      EXPECT_LE(r.iterations, base.iterations)
          << to_string(kind) << " on " << c.rows << "x" << c.cols
          << " seed=" << c.seed;
    }
  }
}

TEST(PrecondProperties, LevelScheduledMatchesSerialBitForBit) {
  ThreadGuard guard;
  constexpr Index kThreadCounts[] = {1, 2, 8};
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const Index n = a.rows();
    const Ic0Preconditioner serial(a);
    const LevelScheduledIc0Preconditioner level(a, /*use_rcm=*/false);
    const std::vector<Real> r = random_vector(n, c.seed ^ 0x777ULL);

    std::vector<Real> z_serial(static_cast<std::size_t>(n));
    serial.apply(r, z_serial);

    for (const Index threads : kThreadCounts) {
      parallel::set_num_threads(threads);
      std::vector<Real> z_level(static_cast<std::size_t>(n));
      level.apply(r, z_level);
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " grid="
                                      << c.rows << "x" << c.cols);
      expect_bitwise_equal(z_serial, z_level);
    }
  }
}

// With RCM enabled the factor is the IC(0) of the permuted matrix; the
// bit-for-bit statement is against the serial preconditioner of P·A·Pᵀ,
// conjugated by P.
TEST(PrecondProperties, LevelScheduledRcmMatchesSerialOnPermutedMatrix) {
  ThreadGuard guard;
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const Index n = a.rows();
    const std::vector<Index> perm = rcm_ordering(a);
    const Ic0Preconditioner serial_permuted(a.permuted_symmetric(perm));
    const LevelScheduledIc0Preconditioner level(a, /*use_rcm=*/true);
    const std::vector<Real> r = random_vector(n, c.seed ^ 0x999ULL);

    const std::vector<Real> r_permuted = apply_permutation(perm, r);
    std::vector<Real> z_permuted(static_cast<std::size_t>(n));
    serial_permuted.apply(r_permuted, z_permuted);

    for (const Index threads : {Index{1}, Index{8}}) {
      parallel::set_num_threads(threads);
      std::vector<Real> z_level(static_cast<std::size_t>(n));
      level.apply(r, z_level);
      for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(z_level[static_cast<std::size_t>(i)],
                  z_permuted[static_cast<std::size_t>(
                      perm[static_cast<std::size_t>(i)])])
            << "node " << i << " threads " << threads;
      }
    }
  }
}

TEST(PrecondProperties, ChebyshevApplyBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const Index n = a.rows();
    const ChebyshevPreconditioner p(a);
    EXPECT_GT(p.lambda_max(), 0.0);
    EXPECT_GT(p.lambda_min(), 0.0);
    EXPECT_LT(p.lambda_min(), p.lambda_max());
    const std::vector<Real> r = random_vector(n, c.seed ^ 0x5e5eULL);

    parallel::set_num_threads(1);
    std::vector<Real> z1(static_cast<std::size_t>(n));
    p.apply(r, z1);
    for (const Index threads : {Index{2}, Index{8}}) {
      parallel::set_num_threads(threads);
      std::vector<Real> zt(static_cast<std::size_t>(n));
      p.apply(r, zt);
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      expect_bitwise_equal(z1, zt);
    }
  }
}

// The level structure itself is part of the determinism story: it must be a
// pure function of the matrix, and RCM must never *increase* the level
// count it was introduced to shrink.
TEST(PrecondProperties, LevelStructureIsDeterministic) {
  for (const GridCase& c : kCases) {
    const CsrMatrix a = random_grid_matrix(c);
    const LevelScheduledIc0Preconditioner p1(a);
    const LevelScheduledIc0Preconditioner p2(a);
    EXPECT_EQ(p1.level_count(), p2.level_count());
    EXPECT_GT(p1.level_count(), 0);
    EXPECT_LE(p1.level_count(), a.rows());
  }
}

}  // namespace
}  // namespace ppdl::linalg
