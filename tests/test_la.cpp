// Unit tests for the sequential linear-algebra substrate.

#include <gtest/gtest.h>

#include "la/generate.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trmm.hpp"
#include "la/trsm.hpp"

namespace catrsm::la {
namespace {

TEST(Matrix, BasicAccessAndShape) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  m(2, 3) = 7.5;
  EXPECT_DOUBLE_EQ(m(2, 3), 7.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, BlockExtractAndInsertRoundTrip) {
  Matrix m = make_dense(1, 6, 5);
  Matrix b = m.block(2, 1, 3, 2);
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 2);
  EXPECT_DOUBLE_EQ(b(0, 0), m(2, 1));
  Matrix m2(6, 5);
  m2.set_block(2, 1, b);
  EXPECT_DOUBLE_EQ(m2(4, 2), m(4, 2));
  EXPECT_DOUBLE_EQ(m2(0, 0), 0.0);
}

TEST(Matrix, TransposeInvolution) {
  Matrix m = make_dense(2, 4, 7);
  EXPECT_TRUE(m.transposed().transposed().equals(m));
}

TEST(Matrix, MovedFromMatrixIsEmpty) {
  // A moved-from matrix must not keep a shape its storage no longer backs.
  Matrix a = make_dense(3, 4, 5);
  Matrix b(std::move(a));
  EXPECT_EQ(a.rows(), 0);
  EXPECT_EQ(a.cols(), 0);
  EXPECT_TRUE(a.data().empty());
  Matrix c(2, 2);
  c = std::move(b);
  EXPECT_EQ(b.rows(), 0);
  EXPECT_EQ(b.cols(), 0);
  EXPECT_TRUE(b.data().empty());
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 5);
  EXPECT_TRUE(c.equals(make_dense(3, 4, 5)));
}

TEST(Matrix, IdentityTimesAnything) {
  Matrix a = make_dense(3, 5, 6);
  Matrix c = matmul(Matrix::identity(5), a);
  EXPECT_LT(max_abs_diff(c, a), 1e-14);
}

TEST(Matrix, BadShapesThrow) {
  Matrix a(2, 3), b(2, 3), c(2, 2);
  EXPECT_THROW(matmul(a, b), Error);
  EXPECT_THROW(gemm(1.0, a, b, 0.0, c), Error);
  EXPECT_THROW(a.block(0, 0, 3, 3), Error);
}

TEST(Gemm, MatchesNaiveTripleLoop) {
  const index_t m = 37, n = 29, kk = 41;
  Matrix a = make_dense(10, m, kk);
  Matrix b = make_dense(11, kk, n);
  Matrix c = matmul(a, b);
  Matrix ref(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t l = 0; l < kk; ++l) s += a(i, l) * b(l, j);
      ref(i, j) = s;
    }
  EXPECT_LT(max_abs_diff(c, ref), 1e-12);
}

TEST(Gemm, AlphaBetaSemantics) {
  Matrix a = make_dense(12, 8, 8);
  Matrix b = make_dense(13, 8, 8);
  Matrix c0 = make_dense(14, 8, 8);

  Matrix c = c0;
  gemm(2.0, a, b, 3.0, c);
  Matrix ref = matmul(a, b);
  ref.scale(2.0);
  Matrix c3 = c0;
  c3.scale(3.0);
  ref.add(c3);
  EXPECT_LT(max_abs_diff(c, ref), 1e-12);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix a = make_dense(15, 4, 4);
  Matrix b = make_dense(16, 4, 4);
  Matrix c(4, 4);
  c(1, 1) = 1e300;  // must be cleanly overwritten, not scaled
  gemm(1.0, a, b, 0.0, c);
  EXPECT_LT(max_abs_diff(c, matmul(a, b)), 1e-12);
}

TEST(Gemm, FlopCountFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(3, 5, 7), 210.0);
}

class TrsmSizes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {
};

TEST_P(TrsmSizes, LowerSolveResidualSmall) {
  const auto [n, k] = GetParam();
  Matrix l = make_lower_triangular(21, n);
  Matrix b = make_rhs(22, n, k);
  Matrix x = solve_lower(l, b);
  EXPECT_LT(trsm_residual(l, x, b), 1e-13);
}

TEST_P(TrsmSizes, UpperSolveResidualSmall) {
  const auto [n, k] = GetParam();
  Matrix u = make_upper_triangular(23, n);
  Matrix b = make_rhs(24, n, k);
  Matrix x = solve_upper(u, b);
  Matrix r = b;
  gemm(1.0, u, x, -1.0, r);
  EXPECT_LT(frobenius_norm(r) / frobenius_norm(b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrsmSizes,
    ::testing::Values(std::pair<index_t, index_t>{1, 1},
                      std::pair<index_t, index_t>{2, 3},
                      std::pair<index_t, index_t>{17, 5},
                      std::pair<index_t, index_t>{64, 64},
                      std::pair<index_t, index_t>{100, 7},
                      std::pair<index_t, index_t>{33, 129}));

TEST(Trsm, UnitDiagIgnoresDiagonalValues) {
  const index_t n = 16;
  Matrix l = make_lower_triangular(31, n);
  Matrix l_unit = l;
  for (index_t i = 0; i < n; ++i) l_unit(i, i) = 1.0;
  Matrix b = make_rhs(32, n, 4);

  Matrix x1 = b;
  trsm_left(Uplo::kLower, Diag::kUnit, l, x1);  // diag should be ignored
  Matrix x2 = b;
  trsm_left(Uplo::kLower, Diag::kNonUnit, l_unit, x2);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-14);
}

TEST(Trsm, RightSolveUpperAndLower) {
  const index_t m = 9, n = 12;
  Matrix u = make_upper_triangular(41, n);
  Matrix b = make_rhs(42, m, n);
  Matrix x = b;
  trsm_right(Uplo::kUpper, Diag::kNonUnit, u, x);
  Matrix r = b;
  gemm(1.0, x, u, -1.0, r);
  EXPECT_LT(frobenius_norm(r) / frobenius_norm(b), 1e-12);

  Matrix l = make_lower_triangular(43, n);
  Matrix y = b;
  trsm_right(Uplo::kLower, Diag::kNonUnit, l, y);
  Matrix r2 = b;
  gemm(1.0, y, l, -1.0, r2);
  EXPECT_LT(frobenius_norm(r2) / frobenius_norm(b), 1e-12);
}

TEST(Trsm, SingularMatrixThrows) {
  Matrix l = make_lower_triangular(51, 4);
  l(2, 2) = 0.0;
  Matrix b = make_rhs(52, 4, 2);
  EXPECT_THROW(solve_lower(l, b), Error);
}

TEST(Trmm, MatchesGemmOnTriangularOperand) {
  const index_t n = 23, k = 9;
  Matrix l = make_lower_triangular(61, n);
  Matrix b = make_rhs(62, n, k);
  Matrix via_trmm = trmm(Uplo::kLower, l, b);
  Matrix via_gemm = matmul(l, b);
  EXPECT_LT(max_abs_diff(via_trmm, via_gemm), 1e-12);

  Matrix u = make_upper_triangular(63, n);
  EXPECT_LT(max_abs_diff(trmm(Uplo::kUpper, u, b), matmul(u, b)), 1e-12);
}

TEST(Trmm, InverseComposesToIdentity) {
  const index_t n = 20;
  Matrix l = make_lower_triangular(71, n);
  Matrix linv = tri_inv(Uplo::kLower, l);
  Matrix b = make_rhs(72, n, 6);
  // L * (L^-1 * B) == B
  Matrix x = trmm(Uplo::kLower, linv, b);
  Matrix back = trmm(Uplo::kLower, l, x);
  EXPECT_LT(max_abs_diff(back, b), 1e-10);
}

class TriInvSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(TriInvSizes, LowerInverseResidual) {
  const index_t n = GetParam();
  Matrix l = make_lower_triangular(81, n);
  Matrix linv = tri_inv(Uplo::kLower, l);
  EXPECT_LT(inv_residual(l, linv), 1e-12);
  // The inverse of a lower-triangular matrix is lower-triangular.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) EXPECT_EQ(linv(i, j), 0.0);
}

TEST_P(TriInvSizes, UpperInverseResidual) {
  const index_t n = GetParam();
  Matrix u = make_upper_triangular(82, n);
  Matrix uinv = tri_inv(Uplo::kUpper, u);
  EXPECT_LT(inv_residual(u, uinv), 1e-12);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < i; ++j) EXPECT_EQ(uinv(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriInvSizes,
                         ::testing::Values(1, 2, 3, 8, 17, 32, 65, 128));

TEST(TriInv, SmallCutoffMatchesLargeCutoff) {
  const index_t n = 40;
  Matrix l = make_lower_triangular(91, n);
  Matrix a = tri_inv(Uplo::kLower, l, 1);
  Matrix b = tri_inv(Uplo::kLower, l, 64);
  EXPECT_LT(max_abs_diff(a, b), 1e-11);
}

TEST(TriInv, SingularThrows) {
  Matrix l = make_lower_triangular(92, 6);
  l(3, 3) = 0.0;
  EXPECT_THROW(tri_inv(Uplo::kLower, l), Error);
}

TEST(Generate, TriangularIsWellConditioned) {
  // cond estimate via ||L|| * ||L^-1|| stays modest as n grows.
  for (index_t n : {16, 64, 256}) {
    Matrix l = make_lower_triangular(101, n);
    Matrix linv = tri_inv(Uplo::kLower, l);
    const double cond = frobenius_norm(l) * frobenius_norm(linv) /
                        static_cast<double>(n);
    EXPECT_LT(cond, 50.0) << "n=" << n;
  }
}

TEST(Generate, ElementHashIsDeterministicAndSpread) {
  EXPECT_DOUBLE_EQ(element_hash(5, 3, 4), element_hash(5, 3, 4));
  EXPECT_NE(element_hash(5, 3, 4), element_hash(5, 4, 3));
  EXPECT_NE(element_hash(5, 3, 4), element_hash(6, 3, 4));
  double mean = 0.0;
  const int samples = 10000;
  for (int i = 0; i < samples; ++i) mean += element_hash(7, i, 13);
  mean /= samples;
  EXPECT_LT(std::abs(mean), 0.05);  // roughly centered
}

TEST(Generate, CholeskyReconstructs) {
  const index_t n = 24;
  Matrix a = make_spd(111, n);
  Matrix l = cholesky(a);
  Matrix llt = matmul(l, l.transposed());
  EXPECT_LT(max_abs_diff(llt, a) / max_abs(a), 1e-12);
}

TEST(Norms, ResidualIsZeroForExactSolve) {
  Matrix l = Matrix::identity(5);
  Matrix b = make_rhs(121, 5, 3);
  EXPECT_LT(trsm_residual(l, b, b), 1e-16);
}

}  // namespace
}  // namespace catrsm::la
