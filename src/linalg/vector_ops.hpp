// Dense vector kernels used by the iterative solvers.
#pragma once

#include <span>

#include "common/types.hpp"

namespace ppdl::linalg {

/// Vectors shorter than this run dot, norm2, axpy and CG's element-wise
/// loops on the calling thread: below it, waking the pool costs more than
/// the chunks it shares out (the crossover measured inside an IC(0)-PCG
/// loop at 4 threads, DESIGN.md "Parallel execution & determinism"). The
/// chunks and their combine order do not change, so neither do the bits.
inline constexpr Index kSerialBelowElements = 40 * 1024;

/// Dot product. Sizes must match.
Real dot(std::span<const Real> x, std::span<const Real> y);

/// Euclidean norm.
Real norm2(std::span<const Real> x);

/// y += alpha * x (sizes must match).
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y);

}  // namespace ppdl::linalg
