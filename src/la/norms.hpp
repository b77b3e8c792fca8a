#pragma once
// Norms and residual measures used by correctness tests and examples.

#include "la/matrix.hpp"
#include "la/trsm.hpp"

namespace catrsm::la {

double frobenius_norm(const Matrix& a);
double max_abs(const Matrix& a);

/// ||tri(T)||_F over the `uplo` triangle of square T, diagonal included;
/// the other triangle is never read. Summed in frobenius_norm's order, so
/// it equals frobenius_norm(t) bit for bit when the other triangle is
/// zero.
double frobenius_norm(Uplo uplo, const Matrix& t);

/// Max elementwise |a - b|.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Relative forward residual of a triangular solve,
///   ||tri(T)*X - B||_F / (||tri(T)||_F ||X||_F + ||B||_F),
/// reading only T's `uplo` triangle: the product is one kernel::trmm
/// (n^2 k flops, half a dense product's). Small (≈ machine epsilon * n)
/// for a backward-stable solve. When T's other triangle is zero the value
/// is bitwise the dense product's.
double trsm_residual(Uplo uplo, const Matrix& t, const Matrix& x,
                     const Matrix& b);
/// Same, with ||tri(T)||_F already known (a plan keeps it beside the
/// operand it memoizes).
double trsm_residual(Uplo uplo, const Matrix& t, double t_norm,
                     const Matrix& x, const Matrix& b);
/// The lower-triangular form: trsm_residual(Uplo::kLower, l, x, b).
double trsm_residual(const Matrix& l, const Matrix& x, const Matrix& b);

/// Inversion residual ||L * Linv - I||_F / n.
double inv_residual(const Matrix& l, const Matrix& linv);

}  // namespace catrsm::la
