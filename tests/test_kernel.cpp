// Tests for the packed micro-kernel GEMM layer: equivalence with a naive
// reference on every edge shape (non-multiples of MR/NR, degenerate dims),
// full alpha/beta semantics, forced-backend agreement, and the blocked
// triangular routines that ride on the kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "la/generate.hpp"
#include "la/gemm.hpp"
#include "la/kernel/kernel.hpp"
#include "la/kernel/pool.hpp"
#include "la/kernel/small_tri.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trmm.hpp"
#include "la/trsm.hpp"

namespace catrsm::la {
namespace {

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t l = 0; l < a.cols(); ++l) {
      const double av = a(i, l);
      for (index_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(l, j);
    }
  return c;
}

double rel_frobenius_diff(const Matrix& a, const Matrix& b) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - b(i, j);
      num += d * d;
      den += b(i, j) * b(i, j);
    }
  if (den == 0.0) return std::sqrt(num);
  return std::sqrt(num / den);
}

/// Shapes that stress every edge of the tiling: 1, 3, MR±1, NR±1 for the
/// dispatched kernel, plus multi-block and non-multiple-of-block sizes.
std::vector<index_t> edge_sizes() {
  const kernel::MicroKernel& uk = kernel::active_microkernel();
  std::set<index_t> s{1, 3, uk.mr - 1, uk.mr + 1, uk.nr - 1, uk.nr + 1,
                      64, 129, 257};
  s.erase(0);
  return {s.begin(), s.end()};
}

TEST(Kernel, DispatchIsResolvedAndConsistent) {
  const kernel::MicroKernel& uk = kernel::active_microkernel();
  EXPECT_GE(uk.mr, 1);
  EXPECT_GE(uk.nr, 1);
  EXPECT_STREQ(uk.name, kernel::backend_name());
  EXPECT_EQ(uk.backend, kernel::active_backend());
  EXPECT_TRUE(kernel::cpu_supports(uk.backend));
  // The scalar backend always exists and is always usable.
  ASSERT_NE(kernel::microkernel_for(kernel::Backend::kScalar), nullptr);
  EXPECT_TRUE(kernel::cpu_supports(kernel::Backend::kScalar));
}

TEST(Kernel, PackedGemmMatchesNaiveOnEdgeShapes) {
  const kernel::MicroKernel& uk = kernel::active_microkernel();
  for (const index_t m : edge_sizes()) {
    for (const index_t n : edge_sizes()) {
      for (const index_t kk : edge_sizes()) {
        const Matrix a = make_dense(m * 131 + kk, m, kk);
        const Matrix b = make_dense(n * 137 + kk, kk, n);
        const Matrix ref = naive_matmul(a, b);
        Matrix c(m, n);
        kernel::gemm_with(uk, m, n, kk, 1.0, a.ptr(), kk, b.ptr(), n, 0.0,
                          c.ptr(), n);
        const double scale = std::max(1.0, max_abs(ref));
        EXPECT_LT(max_abs_diff(c, ref) / scale, 1e-12)
            << "m=" << m << " n=" << n << " k=" << kk;
      }
    }
  }
}

TEST(Kernel, AllAlphaBetaCombos) {
  const kernel::MicroKernel& uk = kernel::active_microkernel();
  const index_t m = uk.mr + 1, n = uk.nr + 1, kk = 67;
  const Matrix a = make_dense(301, m, kk);
  const Matrix b = make_dense(302, kk, n);
  const Matrix c0 = make_dense(303, m, n);
  const Matrix ab = naive_matmul(a, b);
  for (const double alpha : {0.0, 1.0, -1.0, 0.7}) {
    for (const double beta : {0.0, 1.0, -0.3, 2.0}) {
      Matrix c = c0;
      kernel::gemm_with(uk, m, n, kk, alpha, a.ptr(), kk, b.ptr(), n, beta,
                        c.ptr(), n);
      Matrix ref(m, n);
      for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j)
          ref(i, j) = alpha * ab(i, j) + beta * c0(i, j);
      const double scale = std::max(1.0, max_abs(ref));
      EXPECT_LT(max_abs_diff(c, ref) / scale, 1e-12)
          << "alpha=" << alpha << " beta=" << beta;
      // The public entry point must agree with the forced-kernel path.
      Matrix c2 = c0;
      kernel::gemm(m, n, kk, alpha, a.ptr(), kk, b.ptr(), n, beta, c2.ptr(),
                   n);
      EXPECT_LT(max_abs_diff(c2, ref) / scale, 1e-12);
    }
  }
}

TEST(Kernel, BetaZeroOverwritesNonFinite) {
  const kernel::MicroKernel& uk = kernel::active_microkernel();
  const index_t n = 40;
  const Matrix a = make_dense(311, n, n);
  const Matrix b = make_dense(312, n, n);
  Matrix c(n, n);
  c(3, 7) = std::numeric_limits<double>::infinity();
  kernel::gemm_with(uk, n, n, n, 1.0, a.ptr(), n, b.ptr(), n, 0.0, c.ptr(),
                    n);
  EXPECT_LT(max_abs_diff(c, naive_matmul(a, b)), 1e-10);
}

TEST(Kernel, ScalarAndDispatchedBackendsAgree) {
  const kernel::MicroKernel* scalar =
      kernel::microkernel_for(kernel::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  const kernel::MicroKernel& active = kernel::active_microkernel();
  for (const index_t n : {31, 64, 129, 257}) {
    const Matrix a = make_dense(401 + n, n, n);
    const Matrix b = make_dense(402 + n, n, n);
    Matrix cs(n, n), cd(n, n);
    kernel::gemm_with(*scalar, n, n, n, 1.0, a.ptr(), n, b.ptr(), n, 0.0,
                      cs.ptr(), n);
    kernel::gemm_with(active, n, n, n, 1.0, a.ptr(), n, b.ptr(), n, 0.0,
                      cd.ptr(), n);
    EXPECT_LT(rel_frobenius_diff(cd, cs), 1e-12) << "n=" << n;
  }
}

TEST(Kernel, StridedSubmatrixGemm) {
  // Operate on an interior block of a larger matrix: lda/ldb/ldc exceed the
  // logical shapes, as in every blocked triangular update.
  const index_t big = 73, m = 41, n = 37, kk = 29;
  const Matrix outer_a = make_dense(501, big, big);
  const Matrix outer_b = make_dense(502, big, big);
  Matrix outer_c = make_dense(503, big, big);
  const Matrix a = outer_a.block(5, 7, m, kk);
  const Matrix b = outer_b.block(11, 3, kk, n);
  Matrix ref = outer_c.block(2, 9, m, n);
  kernel::gemm(m, n, kk, 1.0, outer_a.ptr() + 5 * big + 7, big,
               outer_b.ptr() + 11 * big + 3, big, 1.0,
               outer_c.ptr() + 2 * big + 9, big);
  Matrix expect = naive_matmul(a, b);
  expect.add(ref);
  EXPECT_LT(max_abs_diff(outer_c.block(2, 9, m, n), expect), 1e-10);
}

TEST(Kernel, BlockedTrsmAllVariantsAtOddSizes) {
  const index_t n = 129, k = 33;
  const Matrix lo = make_lower_triangular(601, n);
  const Matrix up = make_upper_triangular(602, n);
  const Matrix b = make_rhs(603, n, k);
  const Matrix bw = make_rhs(604, k, n);  // wide RHS for right solves

  Matrix x = b;
  trsm_left(Uplo::kLower, Diag::kNonUnit, lo, x);
  EXPECT_LT(trsm_residual(lo, x, b), 1e-12);

  Matrix y = b;
  trsm_left(Uplo::kUpper, Diag::kNonUnit, up, y);
  Matrix r = b;
  gemm(1.0, up, y, -1.0, r);
  EXPECT_LT(frobenius_norm(r) / frobenius_norm(b), 1e-12);

  Matrix xr = bw;
  trsm_right(Uplo::kUpper, Diag::kNonUnit, up, xr);
  Matrix rr = bw;
  gemm(1.0, xr, up, -1.0, rr);
  EXPECT_LT(frobenius_norm(rr) / frobenius_norm(bw), 1e-12);

  Matrix yr = bw;
  trsm_right(Uplo::kLower, Diag::kNonUnit, lo, yr);
  Matrix rr2 = bw;
  gemm(1.0, yr, lo, -1.0, rr2);
  EXPECT_LT(frobenius_norm(rr2) / frobenius_norm(bw), 1e-12);
}

TEST(Kernel, PanelSolveMatchesTheRowAtATimeLoopBitForBit) {
  // trsm_ru_block solves four rows of X at a time, and each row must keep
  // the one-row substitution's operation order. T and B are blocks inside
  // wider matrices, as la::trsm_right hands them over.
  const auto row_at_a_time = [](const double* t, index_t ldt, double* b,
                                index_t ldb, index_t m, index_t nb,
                                bool unit) {
    for (index_t i = 0; i < m; ++i) {
      double* bi = b + i * ldb;
      for (index_t j = 0; j < nb; ++j) {
        double s = bi[j];
        for (index_t l = 0; l < j; ++l) s -= bi[l] * t[l * ldt + j];
        bi[j] = unit ? s : s / t[j * ldt + j];
      }
    }
  };
  for (const index_t nb : {1, 32, 64}) {
    const index_t ld = nb + 5;
    const Matrix up = make_upper_triangular(611, ld);
    const double* t = up.ptr() + 2 * ld + 2;
    for (const index_t m : {1, 3, 4, 5, 129}) {
      const Matrix b = make_rhs(612, m, ld);
      for (const bool unit : {false, true}) {
        Matrix want = b;
        Matrix got = b;
        row_at_a_time(t, ld, want.ptr() + 3, ld, m, nb, unit);
        kernel::trsm_ru_block(t, ld, got.ptr() + 3, ld, m, nb, unit);
        EXPECT_EQ(std::memcmp(got.ptr(), want.ptr(),
                              static_cast<std::size_t>(m * ld) *
                                  sizeof(double)),
                  0)
            << "m=" << m << " nb=" << nb << " unit=" << unit;
      }
    }
  }
}

TEST(Kernel, BlockedTrmmMatchesGemmAcrossBlockBoundary) {
  // trmm takes gemm's K blocks in gemm's order and drops only products
  // with the other triangle's zeros, so it equals the dense product bit
  // for bit. The sizes cross the MR, MC = 144 and KC = 256 edges, and
  // n = 1024 with k = 256 fans out over the pool.
  for (const index_t n : {1, 7, 63, 64, 65, 143, 145, 257, 543, 1024}) {
    const Matrix lo = make_lower_triangular(701, n);
    const Matrix up = make_upper_triangular(702, n);
    for (const index_t k : {1, 17, 256}) {
      const Matrix b = make_rhs(703, n, k);
      EXPECT_TRUE(trmm(Uplo::kLower, lo, b).equals(matmul(lo, b)))
          << "lower n=" << n << " k=" << k;
      EXPECT_TRUE(trmm(Uplo::kUpper, up, b).equals(matmul(up, b)))
          << "upper n=" << n << " k=" << k;
    }
  }
}

TEST(Kernel, TrmmNeverReadsTheOtherTriangle) {
  // NaN anywhere a product read would poison the result; the same bits
  // as with zeros there show that no element of the other triangle is
  // read, on the small-product loop and on the packed path alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const index_t n : {9, 145, 543}) {
    const Matrix b = make_rhs(705, n, 17);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      const Matrix t = uplo == Uplo::kLower ? make_lower_triangular(704, n)
                                            : make_upper_triangular(704, n);
      Matrix junk = t;
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < n; ++j)
          if (uplo == Uplo::kLower ? j > i : j < i) junk(i, j) = nan;
      const Matrix want = trmm(uplo, t, b);
      EXPECT_TRUE(trmm(uplo, junk, b).equals(want)) << "n=" << n;
      // The residual's product accumulates into C (beta = -1).
      EXPECT_EQ(trsm_residual(uplo, junk, b, want),
                trsm_residual(uplo, t, b, want))
          << "n=" << n;
      EXPECT_EQ(frobenius_norm(uplo, junk), frobenius_norm(t)) << "n=" << n;
    }
  }
}

/// RAII pool-size override so a failing assertion cannot leak a forced
/// thread count into later tests.
class PoolThreads {
 public:
  explicit PoolThreads(int n) { kernel::ThreadPool::set_threads_for_testing(n); }
  ~PoolThreads() { kernel::ThreadPool::set_threads_for_testing(0); }
};

double frobenius_distance(const Matrix& a, const Matrix& b) {
  double s = 0.0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - b(i, j);
      s += d * d;
    }
  return std::sqrt(s);
}

TEST(KernelPool, GemmBitIdenticalAcrossPoolSizes) {
  // The team split only decides WHICH thread owns a band of C rows, never
  // what any element computes, so any pool size must reproduce the
  // single-threaded result exactly (Frobenius distance 0, not merely
  // small). Sizes sit past the MT flop threshold (2n^3 > 3.0e8) so the
  // pool genuinely engages: n = 543 (odd) exercises the remainder rows of
  // the band split, n = 1024 multiple kc passes AND multiple mc blocks per
  // thread band.
  for (const index_t n : {543, 1024}) {
    const Matrix a = make_dense(901 + n, n, n);
    const Matrix b = make_dense(902 + n, n, n);
    Matrix c1(n, n);
    {
      PoolThreads single(1);
      c1 = matmul(a, b);
    }
    for (const int threads : {2, 3, 4}) {
      PoolThreads multi(threads);
      const auto before = kernel::ThreadPool::dispatches();
      const Matrix cn = matmul(a, b);
      EXPECT_GT(kernel::ThreadPool::dispatches(), before)
          << "n=" << n << " threads=" << threads
          << ": the multi-threaded run never fanned out";
      EXPECT_TRUE(c1.equals(cn)) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(frobenius_distance(c1, cn), 0.0)
          << "n=" << n << " threads=" << threads;
    }
  }
  // Every participant applies beta to its own band: alpha = 0.5 and
  // beta = 0.25 on a C that starts nonzero. (200, 1500, 600) spans two NC
  // blocks (n > 1024); (1500, 200, 600) gives each participant several
  // MC blocks; both span three K blocks (k > 256) and fan out (3.6e8
  // flops).
  struct Gemm {
    index_t m, n, k;
  };
  for (const Gemm sh : {Gemm{200, 1500, 600}, Gemm{1500, 200, 600}}) {
    const Matrix a = make_dense(903, sh.m, sh.k);
    const Matrix b = make_dense(904, sh.k, sh.n);
    const Matrix c0 = make_dense(905, sh.m, sh.n);
    Matrix c1 = c0;
    {
      PoolThreads single(1);
      gemm(0.5, a, b, 0.25, c1);
    }
    for (const int threads : {2, 3, 4}) {
      PoolThreads multi(threads);
      Matrix cn = c0;
      const auto before = kernel::ThreadPool::dispatches();
      gemm(0.5, a, b, 0.25, cn);
      EXPECT_GT(kernel::ThreadPool::dispatches(), before)
          << "gemm " << sh.m << "x" << sh.n << "x" << sh.k
          << " threads=" << threads;
      EXPECT_TRUE(c1.equals(cn)) << "gemm " << sh.m << "x" << sh.n << "x"
                                 << sh.k << " threads=" << threads;
    }
  }
  // Below the threshold every pool size stays inline; results must of
  // course still match (guards against a fan-out decision that depends
  // on anything but the flop count).
  for (const index_t n : {129, 257}) {
    const Matrix a = make_dense(901 + n, n, n);
    const Matrix b = make_dense(902 + n, n, n);
    Matrix c1(n, n);
    {
      PoolThreads single(1);
      c1 = matmul(a, b);
    }
    PoolThreads multi(4);
    const auto before = kernel::ThreadPool::dispatches();
    const Matrix cn = matmul(a, b);
    EXPECT_EQ(kernel::ThreadPool::dispatches(), before)
        << "n=" << n << " fanned out below the MT flop threshold";
    EXPECT_TRUE(c1.equals(cn)) << "n=" << n;
  }
}

TEST(KernelPool, TrsmAndTriInvBitIdenticalAcrossPoolSizes) {
  for (const index_t n : {129, 257, 512}) {
    const Matrix l = make_lower_triangular(911 + n, n);
    const Matrix b = make_rhs(912 + n, n, n);
    Matrix x1 = b, x4 = b;
    Matrix t1(n, n), t4(n, n);
    {
      PoolThreads single(1);
      trsm_left(Uplo::kLower, Diag::kNonUnit, l, x1);
      t1 = tri_inv(Uplo::kLower, l);
    }
    {
      PoolThreads four(4);
      trsm_left(Uplo::kLower, Diag::kNonUnit, l, x4);
      t4 = tri_inv(Uplo::kLower, l);
    }
    EXPECT_TRUE(x1.equals(x4)) << "trsm n=" << n;
    EXPECT_EQ(frobenius_distance(x1, x4), 0.0) << "trsm n=" << n;
    EXPECT_TRUE(t1.equals(t4)) << "tri_inv n=" << n;
    EXPECT_EQ(frobenius_distance(t1, t4), 0.0) << "tri_inv n=" << n;
  }
  // Out-of-place trmm: a band of rows per participant, cut by the
  // triangle's area. It fans out at (1024, 256), whose dense 2n^2k passes
  // the MT flop threshold, and stays inline at (129, 17).
  struct Shape {
    index_t n, k;
    bool fans_out;
  };
  for (const Shape sh : {Shape{1024, 256, true}, Shape{129, 17, false}}) {
    const Matrix b = make_rhs(914, sh.n, sh.k);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      const Matrix t = uplo == Uplo::kLower
                           ? make_lower_triangular(913, sh.n)
                           : make_upper_triangular(913, sh.n);
      Matrix p1;
      {
        PoolThreads single(1);
        p1 = trmm(uplo, t, b);
      }
      for (const int threads : {2, 3, 4}) {
        PoolThreads multi(threads);
        const auto before = kernel::ThreadPool::dispatches();
        const Matrix pn = trmm(uplo, t, b);
        if (sh.fans_out) {
          EXPECT_GT(kernel::ThreadPool::dispatches(), before)
              << "trmm n=" << sh.n << " threads=" << threads;
        } else {
          EXPECT_EQ(kernel::ThreadPool::dispatches(), before)
              << "trmm n=" << sh.n << " threads=" << threads;
        }
        EXPECT_TRUE(p1.equals(pn))
            << "trmm n=" << sh.n << " threads=" << threads;
      }
    }
  }
  // The residual's product, as la::trsm_residual calls it: C = T * X - B
  // (beta = -1), each participant scaling its own band of B.
  const index_t n = 1024, k = 256;
  const Matrix x = make_rhs(915, n, k);
  const Matrix b = make_rhs(916, n, k);
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    const Matrix t = uplo == Uplo::kLower ? make_lower_triangular(917, n)
                                          : make_upper_triangular(917, n);
    const auto residual = [&] {
      Matrix r = b;
      kernel::trmm(uplo == Uplo::kLower, n, k, 1.0, t.ptr(), n, x.ptr(), k,
                   -1.0, r.ptr(), k);
      return r;
    };
    Matrix r1;
    {
      PoolThreads single(1);
      r1 = residual();
    }
    for (const int threads : {2, 3, 4}) {
      PoolThreads multi(threads);
      const auto before = kernel::ThreadPool::dispatches();
      const Matrix rn = residual();
      EXPECT_GT(kernel::ThreadPool::dispatches(), before)
          << "residual threads=" << threads;
      EXPECT_TRUE(r1.equals(rn)) << "residual threads=" << threads;
    }
  }
}

TEST(Kernel, TriInvStillExactlyTriangular) {
  // The packed path must preserve the exact zeros of the strict opposite
  // triangle (FMA with zero operands stays zero).
  const index_t n = 193;
  const Matrix lo = make_lower_triangular(801, n);
  const Matrix inv = tri_inv(Uplo::kLower, lo);
  EXPECT_LT(inv_residual(lo, inv), 1e-12);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) ASSERT_EQ(inv(i, j), 0.0);
}

}  // namespace
}  // namespace catrsm::la
