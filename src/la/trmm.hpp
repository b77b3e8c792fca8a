#pragma once
// Triangular matrix-matrix multiply: exploits the triangle to halve flops
// relative to a dense gemm. The in-place strided form serves la::tri_inv,
// which multiplies by triangular sub-blocks of a partly built inverse; the
// out-of-place form is the pooled team product of kernel::trmm and serves
// the residual checks (la::trsm_residual).

#include "la/matrix.hpp"
#include "la/trsm.hpp"

namespace catrsm::la {

/// B := T * B with T lower (or upper) triangular, over raw row-major
/// storage: T is n x n with leading dim ldt, B is n x k with leading dim
/// ldb, updated in place.
/// Lets callers multiply by a triangular SUBMATRIX (e.g. the trailing
/// block of a partially built inverse) without copying it out first.
/// T and the updated B region must not overlap.
void trmm_left_strided(Uplo uplo, Diag diag, index_t n, index_t k,
                       const double* t, index_t ldt, double* b, index_t ldb);

/// Returns tri(T) * B, reading only T's `uplo` triangle (diagonal
/// included): one kernel::trmm team dispatch. For a T whose other triangle
/// is zero it equals matmul(T, B) bit for bit at any pool size.
Matrix trmm(Uplo uplo, const Matrix& t, const Matrix& b);

/// Flops for a triangular multiply (half of square gemm).
constexpr double trmm_flops(index_t n, index_t k) {
  return static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace catrsm::la
