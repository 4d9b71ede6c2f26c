// The benchmark's correctness checks.  They read only the CSR arrays and
// plain numbers, never the program's SPMV, and selftest.cpp shows that each
// one rejects a broken input.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "pipescg/sparse/csr_matrix.hpp"

namespace perfbench {

/// The pipelined recurrences may end with a true residual slightly above
/// the recurred one they test (Cools/Vanroose): PIPE-PsCG stops at
/// ||r||/||b|| = 9.99e-7 for rtol 1e-6 on thermal2.  A factor of 2 accepts
/// that gap and still rejects a solve that stopped a digit short.
inline constexpr double kResidualSlack = 2.0;

/// y = A x from row_ptr / col_indices / values.
inline std::vector<double> csr_multiply(const pipescg::sparse::CsrMatrix& a,
                                        const std::vector<double>& x) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_indices();
  const auto va = a.values();
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (auto k = rp[i]; k < rp[i + 1]; ++k)
      sum += va[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    y[i] = sum;
  }
  return y;
}

/// ||b - A x||_2 / ||b||_2.
inline double relative_residual(const pipescg::sparse::CsrMatrix& a,
                                const std::vector<double>& b,
                                const std::vector<double>& x) {
  const std::vector<double> ax = csr_multiply(a, x);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

inline bool residual_ok(double relative_residual, double rtol) {
  return std::isfinite(relative_residual) &&
         relative_residual <= kResidualSlack * rtol;
}

inline bool bitwise_equal(const std::vector<double>& x,
                          const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

/// The k requests of a drained batch must leave the queue as one batched
/// pop: solved one at a time they would pass every other check.  Returns an
/// empty string when they did.
inline std::string one_batch_violation(std::size_t batches,
                                       std::size_t admitted, std::size_t k) {
  if (batches == 1 && admitted == k) return {};
  return "not drained as one batch (" + std::to_string(batches) +
         " batches of " + std::to_string(admitted) + " requests)";
}

/// Kernel calls one traced solve made on one rank.
struct CallCounts {
  std::size_t iterations = 0;  // CG-equivalent
  std::size_t apply_op = 0;    // SPMVs (a power block counts its outputs)
  std::size_t apply_pc = 0;
  std::size_t allreduce = 0;   // dot_post calls
};

/// Paper Table I.  PCG: one SPMV and one PC per iteration plus the initial
/// residual's.  PIPE-PsCG: one allreduce per s iterations plus the set-up
/// ones (||b||, the first dot batch); residual replacement rides the
/// regular batch.  Returns an empty string when the counts hold.
inline std::string table1_violation(const std::string& method, int s,
                                    const CallCounts& c) {
  if (method == "pcg") {
    if (c.apply_op != c.iterations + 1)
      return "pcg made " + std::to_string(c.apply_op) + " SPMVs in " +
             std::to_string(c.iterations) + " iterations";
    if (c.apply_pc != c.iterations + 1)
      return "pcg made " + std::to_string(c.apply_pc) + " PCs in " +
             std::to_string(c.iterations) + " iterations";
    return {};
  }
  if (method == "pipe-pscg") {
    const std::size_t su = static_cast<std::size_t>(s);
    const std::size_t outer = c.iterations / su;
    if (c.iterations % su != 0 || c.allreduce < outer + 1 ||
        c.allreduce > outer + 3)
      return "pipe-pscg posted " + std::to_string(c.allreduce) +
             " allreduces in " + std::to_string(c.iterations) +
             " iterations at s=" + std::to_string(s);
    return {};
  }
  return {};
}

}  // namespace perfbench
