#include "la/norms.hpp"

#include <cmath>

#include "la/gemm.hpp"
#include "la/kernel/kernel.hpp"

namespace catrsm::la {

double frobenius_norm(const Matrix& a) {
  double s = 0.0;
  for (const double v : a.data()) s += v * v;
  return std::sqrt(s);
}

double max_abs(const Matrix& a) {
  double m = 0.0;
  for (const double v : a.data()) m = std::max(m, std::abs(v));
  return m;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  CATRSM_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

double frobenius_norm(Uplo uplo, const Matrix& t) {
  CATRSM_CHECK(t.rows() == t.cols(), "frobenius_norm: T must be square");
  const index_t n = t.rows();
  double s = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double* row = t.ptr() + i * n;
    const index_t j1 = uplo == Uplo::kLower ? i + 1 : n;
    for (index_t j = uplo == Uplo::kLower ? 0 : i; j < j1; ++j)
      s += row[j] * row[j];
  }
  return std::sqrt(s);
}

double trsm_residual(Uplo uplo, const Matrix& t, const Matrix& x,
                     const Matrix& b) {
  return trsm_residual(uplo, t, frobenius_norm(uplo, t), x, b);
}

double trsm_residual(Uplo uplo, const Matrix& t, double t_norm,
                     const Matrix& x, const Matrix& b) {
  CATRSM_CHECK(t.rows() == t.cols() && x.rows() == t.rows(),
               "trsm_residual: T must be square and match X");
  CATRSM_CHECK(b.rows() == x.rows() && b.cols() == x.cols(),
               "trsm_residual: B must match X");
  Matrix r = b;
  // r = tri(T)*X - B (sign irrelevant for norms)
  kernel::trmm(uplo == Uplo::kLower, t.rows(), x.cols(), 1.0, t.ptr(),
               t.cols(), x.ptr(), x.cols(), -1.0, r.ptr(), r.cols());
  // ||R||, ||X|| and ||B|| are three independent sums, each in
  // frobenius_norm's order: one pass runs the dependency chains side by
  // side.
  double sr = 0.0, sx = 0.0, sb = 0.0;
  for (index_t i = 0; i < r.size(); ++i) {
    sr += r.ptr()[i] * r.ptr()[i];
    sx += x.ptr()[i] * x.ptr()[i];
    sb += b.ptr()[i] * b.ptr()[i];
  }
  const double denom = t_norm * std::sqrt(sx) + std::sqrt(sb);
  return denom == 0.0 ? std::sqrt(sr) : std::sqrt(sr) / denom;
}

double trsm_residual(const Matrix& l, const Matrix& x, const Matrix& b) {
  return trsm_residual(Uplo::kLower, l, x, b);
}

double inv_residual(const Matrix& l, const Matrix& linv) {
  Matrix prod = matmul(l, linv);
  Matrix eye = Matrix::identity(l.rows());
  prod.sub(eye);
  return frobenius_norm(prod) / static_cast<double>(l.rows());
}

}  // namespace catrsm::la
