// Dense vector kernels used by the iterative solvers.
#pragma once

#include <span>

#include "common/types.hpp"

namespace ppdl::linalg {

/// Vectors shorter than this run dot, norm2 and CG's vector passes on the
/// calling thread: below it, waking the pool costs more than
/// the chunks it shares out (the crossover measured inside an IC(0)-PCG
/// loop at 4 threads, DESIGN.md "Parallel execution & determinism"). The
/// chunks and their combine order do not change, so neither do the bits.
inline constexpr Index kSerialBelowElements = 40 * 1024;

/// Chunk length of dot's reduction: vectors up to one chunk sum serially,
/// longer ones as per-chunk partials added in chunk order. It fixes the
/// association of the sum, so it is part of the numeric contract; CG's
/// fused passes chunk their reductions by it too.
inline constexpr Index kReduceGrain = 4096;

/// Dot product. Sizes must match.
Real dot(std::span<const Real> x, std::span<const Real> y);

/// Euclidean norm.
Real norm2(std::span<const Real> x);

}  // namespace ppdl::linalg
