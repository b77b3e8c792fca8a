#pragma once
// Sequential blocked GEMM kernels. These are the flop substrate for every
// distributed algorithm; their flop counts (2*m*n*k) feed the gamma term of
// the cost model.

#include "la/matrix.hpp"

namespace catrsm::la {

/// C = alpha * A * B + beta * C.  A: m x kk, B: kk x n, C: m x n.
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c);

/// Convenience: returns A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Flop count charged for a gemm of these dimensions (multiply + add).
constexpr double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace catrsm::la
