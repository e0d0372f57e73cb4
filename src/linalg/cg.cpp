#include "linalg/cg.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {

namespace {

// Fault-injection clamp (see ScopedCgIterationClamp). 0 = inactive.
Index g_cg_iteration_clamp = 0;

}  // namespace

const char* to_string(CgStatus status) {
  switch (status) {
    case CgStatus::kConverged:
      return "converged";
    case CgStatus::kMaxIterations:
      return "max-iterations";
    case CgStatus::kStagnated:
      return "stagnated";
    case CgStatus::kBreakdown:
      return "breakdown";
    case CgStatus::kNonFinite:
      return "non-finite";
  }
  return "?";
}

ScopedCgIterationClamp::ScopedCgIterationClamp(Index max_iterations)
    : previous_(g_cg_iteration_clamp) {
  PPDL_REQUIRE(max_iterations > 0, "CG iteration clamp must be > 0");
  g_cg_iteration_clamp = max_iterations;
}

ScopedCgIterationClamp::~ScopedCgIterationClamp() {
  g_cg_iteration_clamp = previous_;
}

Index cg_iteration_clamp() { return g_cg_iteration_clamp; }

namespace {

CgResult conjugate_gradient_impl(const CsrMatrix& a, std::span<const Real> b,
                                 const CgOptions& options,
                                 std::optional<std::vector<Real>> x0) {
  PPDL_REQUIRE(a.rows() == a.cols(), "CG needs a square matrix");
  PPDL_REQUIRE(static_cast<Index>(b.size()) == a.rows(),
               "CG: rhs size mismatch");
  const Index n = a.rows();
  Index max_iter = options.max_iterations > 0 ? options.max_iterations : 2 * n;
  if (g_cg_iteration_clamp > 0) {
    max_iter = std::min(max_iter, g_cg_iteration_clamp);
  }

  CgResult result;
  result.x = x0.has_value() ? std::move(*x0)
                            : std::vector<Real>(static_cast<std::size_t>(n), 0.0);
  PPDL_REQUIRE(static_cast<Index>(result.x.size()) == n,
               "CG: x0 size mismatch");

  const Real bnorm = norm2(b);
  if (bnorm == 0.0) {
    // Homogeneous system: x = 0 is exact.
    result.x.assign(static_cast<std::size_t>(n), 0.0);
    result.converged = true;
    result.status = CgStatus::kConverged;
    return result;
  }

  const std::unique_ptr<Preconditioner> owned =
      options.shared_preconditioner == nullptr
          ? make_preconditioner(options.preconditioner, a)
          : nullptr;
  const Preconditioner* const precond =
      options.shared_preconditioner != nullptr ? options.shared_preconditioner
                                               : owned.get();

  // Element-wise kernels below split into fixed chunks (independent of
  // thread count), so every iterate is bit-identical however many threads
  // run them. Short vectors keep them on the calling thread, as the
  // vector_ops kernels do.
  constexpr Index kVecGrain = 8192;
  const parallel::ParallelOptions vec_opts{
      .num_threads = n < kSerialBelowElements ? 1 : 0};
  const parallel::ParallelOptions spmv_opts{
      .num_threads = n < kSerialBelowRows ? 1 : 0};

  std::vector<Real> r(static_cast<std::size_t>(n));
  a.multiply(result.x, r);
  parallel::for_range(
      n, kVecGrain,
      [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          r[iu] = b[iu] - r[iu];
        }
      },
      {}, vec_opts);

  std::vector<Real> z(static_cast<std::size_t>(n));
  precond->apply(r, z);
  std::vector<Real> p = z;
  std::vector<Real> ap(static_cast<std::size_t>(n));

  Real rz = dot(r, z);
  Real rel = norm2(r) / bnorm;
  result.relative_residual = rel;
  if (!std::isfinite(rel)) {
    result.status = CgStatus::kNonFinite;
    return result;
  }
  if (rel <= options.tolerance) {
    result.converged = true;
    result.status = CgStatus::kConverged;
    return result;
  }

  // Stagnation tracking: best residual seen and iterations since it last
  // improved by a meaningful factor.
  Real best_rel = rel;
  Index since_improvement = 0;

  // Each iteration fuses SpMV with dot(p, Ap), and both axpys with
  // norm2(r), into one pass over dot's reduction chunks. Every element
  // takes the unfused kernels' expressions (row_times, x += α·p,
  // r += (−α)·Ap, the products summed from +0.0) and reduce_sum adds the
  // chunk partials in chunk order, so each partial and each sum are the
  // unfused ones bit for bit.
  const Real* const pv = p.data();
  Real* const apv = ap.data();
  Real* const xv = result.x.data();
  Real* const rv = r.data();
  for (Index it = 1; it <= max_iter; ++it) {
    const Real pap = parallel::reduce_sum(
        n, kReduceGrain,
        [&](Index begin, Index end) {
          Real acc = 0.0;
          for (Index i = begin; i < end; ++i) {
            const Real api = a.row_times(i, p);
            apv[i] = api;
            acc += pv[i] * api;
          }
          return acc;
        },
        spmv_opts);
    if (!std::isfinite(pap)) {
      result.status = CgStatus::kNonFinite;
      return result;
    }
    if (pap <= 0.0) {
      // Not positive definite along this direction — the reduced system is
      // singular (floating node) or indefinite. Report instead of throwing
      // so the escalation ladder can take over.
      result.status = CgStatus::kBreakdown;
      return result;
    }
    const Real alpha = rz / pap;
    const Real neg_alpha = -alpha;
    const Real rr = parallel::reduce_sum(
        n, kReduceGrain,
        [&](Index begin, Index end) {
          Real acc = 0.0;
          for (Index i = begin; i < end; ++i) {
            xv[i] += alpha * pv[i];
            const Real ri = rv[i] + neg_alpha * apv[i];
            rv[i] = ri;
            acc += ri * ri;
          }
          return acc;
        },
        vec_opts);

    rel = std::sqrt(rr) / bnorm;
    result.iterations = it;
    result.relative_residual = rel;
    if (options.observer) {
      options.observer(it, rel);
    }
    if (!std::isfinite(rel)) {
      result.status = CgStatus::kNonFinite;
      return result;
    }
    if (rel <= options.tolerance) {
      result.converged = true;
      result.status = CgStatus::kConverged;
      return result;
    }
    if (options.stagnation_window > 0) {
      if (rel < best_rel * (1.0 - options.stagnation_rtol)) {
        best_rel = rel;
        since_improvement = 0;
      } else if (++since_improvement >= options.stagnation_window) {
        result.status = CgStatus::kStagnated;
        return result;
      }
    }

    precond->apply(r, z);
    const Real rz_next = dot(r, z);
    const Real beta = rz_next / rz;
    rz = rz_next;
    parallel::for_range(
        n, kVecGrain,
        [&](Index begin, Index end) {
          for (Index i = begin; i < end; ++i) {
            const auto iu = static_cast<std::size_t>(i);
            p[iu] = z[iu] + beta * p[iu];
          }
        },
        {}, vec_opts);
  }
  result.status = CgStatus::kMaxIterations;
  return result;
}

}  // namespace

CgResult conjugate_gradient(const CsrMatrix& a, std::span<const Real> b,
                            const CgOptions& options,
                            std::optional<std::vector<Real>> x0) {
  // Residual-trajectory instrumentation rides the existing observer hook so
  // the solver loop itself stays untouched; disabled metrics cost one atomic
  // load here, nothing per iteration.
  CgOptions opts = options;
  if (obs::metrics_enabled()) {
    static const obs::HistogramSpec kResidualSpec{-16.0, 0.0, 32};
    opts.observer = [prev = options.observer](Index it, Real rel) {
      if (rel > 0.0 && std::isfinite(rel)) {
        obs::observe("cg.iter_log10_residual", std::log10(rel),
                     kResidualSpec);
      }
      if (prev) {
        prev(it, rel);
      }
    };
  }
  CgResult result = conjugate_gradient_impl(a, b, opts, std::move(x0));
  obs::count("cg.solves");
  obs::count("cg.iterations", result.iterations);
  obs::count(std::string("cg.status.") + to_string(result.status));
  obs::observe("cg.solve_iterations", static_cast<Real>(result.iterations),
               {0.0, 512.0, 32});
  if (result.relative_residual > 0.0 &&
      std::isfinite(result.relative_residual)) {
    obs::observe("cg.log10_relative_residual",
                 std::log10(result.relative_residual), {-16.0, 0.0, 32});
  }
  return result;
}

}  // namespace ppdl::linalg
