#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "linalg/vector_ops.hpp"

namespace ppdl::linalg {
namespace {

TEST(VectorOps, DotProduct) {
  const std::vector<Real> x{1.0, 2.0, 3.0};
  const std::vector<Real> y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
}

TEST(VectorOps, DotSizeMismatchThrows) {
  const std::vector<Real> x{1.0};
  const std::vector<Real> y{1.0, 2.0};
  EXPECT_THROW(dot(x, y), ppdl::ContractViolation);
}

TEST(VectorOps, Norm2) {
  const std::vector<Real> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
}

TEST(VectorOps, NormOfEmptyIsZero) {
  const std::vector<Real> x;
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

}  // namespace
}  // namespace ppdl::linalg
