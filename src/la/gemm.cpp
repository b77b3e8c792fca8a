#include "la/gemm.hpp"

#include "la/kernel/kernel.hpp"

namespace catrsm::la {

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c) {
  CATRSM_CHECK(a.cols() == b.rows(), "gemm: inner dims mismatch");
  CATRSM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
               "gemm: output shape mismatch");
  const index_t m = a.rows(), n = b.cols(), kk = a.cols();
  kernel::gemm(m, n, kk, alpha, a.ptr(), kk, b.ptr(), n, beta, c.ptr(), n);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  // beta == 0: gemm writes every element of C without reading it.
  Matrix c = Matrix::uninit(a.rows(), b.cols());
  gemm(1.0, a, b, 0.0, c);
  return c;
}

}  // namespace catrsm::la
