#include "la/trmm.hpp"

#include <algorithm>

#include "la/kernel/kernel.hpp"
#include "la/kernel/small_tri.hpp"

namespace catrsm::la {

namespace {
constexpr index_t kDiagBlock = 64;
}  // namespace

void trmm_left_strided(Uplo uplo, Diag diag, index_t n, index_t k,
                       const double* tp, index_t ldt, double* bp,
                       index_t ldb) {
  if (n == 0 || k == 0) return;
  const bool unit = diag == Diag::kUnit;

  if (uplo == Uplo::kLower) {
    // Block row i reads rows <= i of B: walk bottom-up so the rows the
    // GEMM panel reads are still unmodified.
    for (index_t i0 = ((n - 1) / kDiagBlock) * kDiagBlock;; i0 -= kDiagBlock) {
      const index_t nb = std::min(kDiagBlock, n - i0);
      kernel::trmm_ll_block(tp + i0 * ldt + i0, ldt, bp + i0 * ldb, ldb, nb,
                            k, unit);
      if (i0 > 0)
        kernel::gemm(nb, k, i0, 1.0, tp + i0 * ldt, ldt, bp, ldb, 1.0,
                     bp + i0 * ldb, ldb);
      if (i0 == 0) break;
    }
  } else {
    // Block row i reads rows >= i: walk top-down.
    for (index_t i0 = 0; i0 < n; i0 += kDiagBlock) {
      const index_t nb = std::min(kDiagBlock, n - i0);
      kernel::trmm_lu_block(tp + i0 * ldt + i0, ldt, bp + i0 * ldb, ldb, nb,
                            k, unit);
      const index_t t0 = i0 + nb;
      if (t0 < n)
        kernel::gemm(nb, k, n - t0, 1.0, tp + i0 * ldt + t0, ldt,
                     bp + t0 * ldb, ldb, 1.0, bp + i0 * ldb, ldb);
    }
  }
}

Matrix trmm(Uplo uplo, const Matrix& t, const Matrix& b) {
  CATRSM_CHECK(t.rows() == t.cols(), "trmm: T must be square");
  CATRSM_CHECK(t.rows() == b.rows(), "trmm: dimension mismatch");
  Matrix out = Matrix::uninit(b.rows(), b.cols());
  kernel::trmm(uplo == Uplo::kLower, t.rows(), b.cols(), 1.0, t.ptr(),
               t.cols(), b.ptr(), b.cols(), 0.0, out.ptr(), out.cols());
  return out;
}

}  // namespace catrsm::la
