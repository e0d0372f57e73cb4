// Bit-identity of the pooled linalg kernels. The matrix has at least twice
// kSerialBelowElements rows (and so more than kSerialBelowRows), so at
// PPDL_THREADS > 1 SpMV, dot, norm2 and CG's element-wise loops hand their
// chunks to the pool; smaller problems never reach it. ctest runs this
// suite at PPDL_THREADS 1, 2 and 8 (linalg_pooled_bitwise_t*, label
// determinism), so the sanitizer jobs cover the pooled path too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "linalg/cg.hpp"
#include "linalg/vector_ops.hpp"
#include "support/random_grid.hpp"

namespace ppdl::linalg {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

const CsrMatrix& pooled_matrix() {
  // 290 × 290 = 84,100 rows: above 2 × kSerialBelowElements.
  static const CsrMatrix a =
      testsupport::random_grid_matrix({290, 290, 2718, 10.0, 0.3});
  return a;
}

void expect_bitwise_equal(const std::vector<Real>& got,
                          const std::vector<Real>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i;
  }
}

TEST(LinalgPooledBitwise, SpmvDotNorm2MatchSerialReferences) {
  const CsrMatrix& a = pooled_matrix();
  const Index n = a.rows();
  ASSERT_GE(n, 2 * kSerialBelowElements);
  const std::vector<Real> x = testsupport::random_vector(n, 31);
  const std::vector<Real> y = testsupport::random_vector(n, 37);

  // References: each row's own serial sum; the dot as 4096-element chunk
  // partials added in chunk order (the reduction grain fixes association).
  std::vector<Real> ax_ref(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    Real acc = 0.0;
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      acc += a.values()[ku] *
             x[static_cast<std::size_t>(a.col_idx()[ku])];
    }
    ax_ref[static_cast<std::size_t>(r)] = acc;
  }
  const auto chunked_dot = [n](const std::vector<Real>& u,
                               const std::vector<Real>& v) {
    constexpr Index kGrain = 4096;
    Real total = 0.0;
    for (Index begin = 0; begin < n; begin += kGrain) {
      Real partial = 0.0;
      for (Index i = begin; i < std::min(n, begin + kGrain); ++i) {
        partial += u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
      }
      total += partial;
    }
    return total;
  };
  const Real dot_ref = chunked_dot(x, y);
  const Real norm_ref = std::sqrt(chunked_dot(x, x));

  // The configured thread count (PPDL_THREADS): pooled when it is above 1.
  std::vector<Real> ax(static_cast<std::size_t>(n));
  a.multiply(x, ax);
  expect_bitwise_equal(ax, ax_ref);
  EXPECT_EQ(dot(x, y), dot_ref);
  EXPECT_EQ(norm2(x), norm_ref);
  if (parallel::default_num_threads() > 1) {
    EXPECT_GT(parallel::ThreadPool::instance().worker_count(), 0)
        << "the kernels never reached the pool";
  }
}

TEST(LinalgPooledBitwise, Ic0PcgMatchesSingleThread) {
  ThreadGuard guard;
  const CsrMatrix& a = pooled_matrix();
  const std::vector<Real> b = testsupport::random_vector(a.rows(), 41);
  CgOptions opts;
  opts.preconditioner = PreconditionerKind::kIc0;
  opts.tolerance = 1e-8;

  parallel::set_num_threads(1);
  const CgResult serial = conjugate_gradient(a, b, opts);
  parallel::set_num_threads(0);  // back to PPDL_THREADS
  const CgResult pooled = conjugate_gradient(a, b, opts);

  ASSERT_TRUE(serial.converged);
  EXPECT_EQ(pooled.status, serial.status);
  EXPECT_EQ(pooled.iterations, serial.iterations);
  EXPECT_EQ(pooled.relative_residual, serial.relative_residual);
  expect_bitwise_equal(pooled.x, serial.x);
}

}  // namespace
}  // namespace ppdl::linalg
