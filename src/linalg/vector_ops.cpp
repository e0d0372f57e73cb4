#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace ppdl::linalg {

namespace {

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

}  // namespace ppdl::linalg
