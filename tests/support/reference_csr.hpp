// Reference COO→CSR conversion and a bytewise CSR comparison, shared by the
// linalg and analysis bit-identity suites. The reference stable-sorts each
// row by column and folds duplicates left to right, so duplicates sum in
// insertion order — the contract CsrMatrix::from_coo keeps (and
// IncrementalIrSolver's slot re-sum replays).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "linalg/coo.hpp"
#include "linalg/csr.hpp"

namespace ppdl::testsupport {

struct CsrArrays {
  std::vector<Index> row_ptr;
  std::vector<Index> col_idx;
  std::vector<Real> values;
};

inline CsrArrays reference_from_coo(const linalg::CooMatrix& coo) {
  CsrArrays m;
  m.row_ptr.assign(static_cast<std::size_t>(coo.rows()) + 1, 0);
  std::vector<std::vector<std::pair<Index, Real>>> rows(
      static_cast<std::size_t>(coo.rows()));
  for (const linalg::Triplet& t : coo.entries()) {
    rows[static_cast<std::size_t>(t.row)].emplace_back(t.col, t.value);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::stable_sort(rows[r].begin(), rows[r].end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const auto row_begin = m.col_idx.size();
    for (const auto& [col, value] : rows[r]) {
      if (m.col_idx.size() > row_begin && m.col_idx.back() == col) {
        m.values.back() += value;
      } else {
        m.col_idx.push_back(col);
        m.values.push_back(value);
      }
    }
    m.row_ptr[r + 1] = static_cast<Index>(m.col_idx.size());
  }
  return m;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

inline void expect_csr_bytes(const linalg::CsrMatrix& got,
                             const CsrArrays& want) {
  EXPECT_EQ(got.rows() + 1, static_cast<Index>(want.row_ptr.size()));
  EXPECT_TRUE(same_bytes(got.row_ptr(), std::span<const Index>(want.row_ptr)));
  EXPECT_TRUE(same_bytes(got.col_idx(), std::span<const Index>(want.col_idx)));
  EXPECT_TRUE(same_bytes(got.values(), std::span<const Real>(want.values)));
}

}  // namespace ppdl::testsupport
