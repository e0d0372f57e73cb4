#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

// Deterministic-chunking grains. The reduction grain doubles as the
// association boundary of the chunked sum, so it is part of the numeric
// contract: vectors at or below one grain take exactly the historical
// serial path, longer ones use fixed chunk partials combined in index
// order (bit-identical for any thread count).
constexpr Index kReduceGrain = 4096;
constexpr Index kMapGrain = 16384;

/// One thread below kSerialBelowElements, the configured count above.
parallel::ParallelOptions options_for(Index n) {
  return {.num_threads = n < kSerialBelowElements ? 1 : 0};
}

}  // namespace

Real dot(std::span<const Real> x, std::span<const Real> y) {
  PPDL_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  const Index n = static_cast<Index>(x.size());
  return parallel::reduce_sum(
      n, kReduceGrain,
      [&](Index begin, Index end) {
        Real acc = 0.0;
        for (Index i = begin; i < end; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          acc += x[iu] * y[iu];
        }
        return acc;
      },
      options_for(n));
}

Real norm2(std::span<const Real> x) { return std::sqrt(dot(x, x)); }

void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) {
  PPDL_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  const Index n = static_cast<Index>(x.size());
  parallel::for_range(
      n, kMapGrain,
      [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          y[iu] += alpha * x[iu];
        }
      },
      {}, options_for(n));
}

}  // namespace ppdl::linalg
