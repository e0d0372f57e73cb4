// Seeded random SPD grid matrices: the sparsity and sign structure of a
// power-grid conductance matrix, shared by the linalg property and
// bit-identity suites.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"

namespace ppdl::testsupport {

struct GridCase {
  Index rows;
  Index cols;
  U64 seed;
  Real spread;        ///< conductance ratio (conditioning knob)
  Real pad_fraction;  ///< grounded-node density (fewer pads = harsher)
};

/// Random SPD M-matrix on a rows×cols grid graph: negative off-diagonals
/// (edge conductances drawn from [1, spread]), diagonal = |row sum| plus a
/// positive pad conductance on a random node subset — diagonally dominant,
/// hence SPD; sparsity pattern of a power-grid layer.
inline linalg::CsrMatrix random_grid_matrix(const GridCase& c) {
  Rng rng(c.seed);
  const Index n = c.rows * c.cols;
  std::vector<Real> diag(static_cast<std::size_t>(n), 0.0);
  linalg::CooMatrix coo(n, n);
  const auto node = [&](Index i, Index j) { return i * c.cols + j; };
  for (Index i = 0; i < c.rows; ++i) {
    for (Index j = 0; j < c.cols; ++j) {
      const Index u = node(i, j);
      if (j + 1 < c.cols) {
        const Real g = rng.uniform(1.0, c.spread);
        coo.add_symmetric_pair(u, node(i, j + 1), -g);
        diag[static_cast<std::size_t>(u)] += g;
        diag[static_cast<std::size_t>(node(i, j + 1))] += g;
      }
      if (i + 1 < c.rows) {
        const Real g = rng.uniform(1.0, c.spread);
        coo.add_symmetric_pair(u, node(i + 1, j), -g);
        diag[static_cast<std::size_t>(u)] += g;
        diag[static_cast<std::size_t>(node(i + 1, j))] += g;
      }
    }
  }
  bool any_pad = false;
  for (Index v = 0; v < n; ++v) {
    if (rng.uniform() < c.pad_fraction) {
      diag[static_cast<std::size_t>(v)] += rng.uniform(0.5, 2.0);
      any_pad = true;
    }
  }
  if (!any_pad) {
    diag[0] += 1.0;  // keep the matrix nonsingular in every draw
  }
  for (Index v = 0; v < n; ++v) {
    coo.add(v, v, diag[static_cast<std::size_t>(v)]);
  }
  return linalg::CsrMatrix::from_coo(coo);
}

/// Standard-normal vector from its own seeded stream.
inline std::vector<Real> random_vector(Index n, U64 seed) {
  Rng rng(seed);
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (Real& x : v) {
    x = rng.normal();
  }
  return v;
}

}  // namespace ppdl::testsupport
