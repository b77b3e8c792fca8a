#include <algorithm>
#include <utility>

#include "la/kernel/kernel.hpp"
#include "la/kernel/pool.hpp"

namespace catrsm::la::kernel {

namespace {

// Cache blocking: an MC x KC packed panel of A lives in L2 while KC x NC
// of packed B streams from L3. MC is a common multiple of every backend's
// MR so full strips dominate; NC likewise for NR.
constexpr index_t kMc = 144;
constexpr index_t kKc = 256;
constexpr index_t kNc = 1024;

// Below this m*n*k the packing and dispatch overhead beats the gain; run a
// branch-free naive loop instead (identical results up to summation order).
constexpr index_t kSmallProduct = 16 * 1024;

// Below this flop count (2*m*n*k) a team dispatch beats the speedup;
// stay on one thread. Engagement never changes the arithmetic — only
// which thread executes an index — so results are identical either way.
// Measured on the 2-core CI box when gemm's team still paid two spin
// barriers per K block: n=512 square (2.7e8 flops) ran ~15% SLOWER
// fanned out than inline, while n=1024 (2.1e9) still gained, so the
// threshold sits between the two. The barrier-free body keeps the value
// without a new measurement.
constexpr double kMtFlopThreshold = 3.0e8;

// Largest micro-tile any backend uses (AVX-512: 8 x 16); the partial tile
// scratch is sized once for all of them.
constexpr index_t kMaxMr = 8;
constexpr index_t kMaxNr = 16;

index_t round_up(index_t x, index_t to) { return ((x + to - 1) / to) * to; }

/// How the macro-kernel writes the C tile. Both modes compute identical
/// values; kAssign additionally lets the driver skip the beta==0
/// zero-fill pass because the first K pass overwrites C outright.
enum class Store { kAccum, kAssign };

/// Which elements of A a product reads: all of them (gemm), or one
/// triangle of a square matrix (trmm), whose other triangle packs as zero.
enum class Tri { kDense, kLower, kUpper };

/// Pack A(m x k, stride lda) in mr-row strips, column-major within each
/// strip, alpha folded in; rows past m are zero so the inner kernel never
/// needs an m-edge branch. Under kLower (kUpper) element (i, l) is read
/// only when l <= i + off (l >= i + off), `off` being the panel's first
/// row minus its first column in the whole matrix, and packs as zero
/// otherwise.
template <Tri kTri>
void pack_a_strips(const double* a, index_t lda, index_t m, index_t k,
                   double alpha, index_t mr_full, double* ap, index_t off) {
  for (index_t s = 0; s * mr_full < m; ++s) {
    const index_t i0 = s * mr_full;
    const index_t mr = std::min(mr_full, m - i0);
    double* dst = ap + s * k * mr_full;
    for (index_t l = 0; l < k; ++l) {
      // The strip's rows [lo, hi) hold column l's elements of the triangle.
      index_t lo = 0;
      index_t hi = mr;
      if constexpr (kTri == Tri::kLower)
        lo = std::clamp<index_t>(l - off - i0, 0, mr);
      if constexpr (kTri == Tri::kUpper)
        hi = std::clamp<index_t>(l - off - i0 + 1, 0, mr);
      for (index_t i = 0; i < lo; ++i) dst[l * mr_full + i] = 0.0;
      for (index_t i = lo; i < hi; ++i)
        dst[l * mr_full + i] = alpha * a[(i0 + i) * lda + l];
      for (index_t i = hi; i < mr_full; ++i) dst[l * mr_full + i] = 0.0;
    }
  }
}

/// Pack B(k x n, stride ldb) in nr-column strips, row-major within each
/// strip, zero-padded past n.
void pack_b_strips(const double* b, index_t ldb, index_t k, index_t n,
                   index_t nr_full, double* bp) {
  for (index_t s = 0; s * nr_full < n; ++s) {
    const index_t j0 = s * nr_full;
    const index_t nr = std::min(nr_full, n - j0);
    double* dst = bp + s * k * nr_full;
    for (index_t l = 0; l < k; ++l) {
      const double* brow = b + l * ldb + j0;
      for (index_t j = 0; j < nr; ++j) dst[l * nr_full + j] = brow[j];
      for (index_t j = nr; j < nr_full; ++j) dst[l * nr_full + j] = 0.0;
    }
  }
}

void apply_beta(double beta, index_t m, index_t n, double* c, index_t ldc) {
  if (beta == 1.0) return;
  for (index_t i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    if (beta == 0.0) {
      std::fill(crow, crow + n, 0.0);
    } else {
      for (index_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

/// One mr x nr tile of C (mr, nr at most the kernel's) from packed
/// panels of depth kc. The store mode never changes the computed tile
/// values — accumulate adds them to C, assign overwrites C (legal only on
/// the first K pass of a beta == 0 product, where the old C is dead).
void macro_tile(const MicroKernel& uk, index_t kc, const double* ap,
                const double* bp, double* ct, index_t ldc, index_t mr,
                index_t nr, Store mode) {
  const index_t nr_full = uk.nr;
  if (mr == uk.mr && nr == nr_full) {
    if (mode == Store::kAccum) {
      uk.run(kc, ap, bp, ct, ldc);
    } else {
      uk.run_store(kc, ap, bp, ct, ldc);
    }
    return;
  }
  // Partial tile: compute a full-size local tile (the packed panels are
  // zero-padded) and write back only the live part.
  alignas(64) double tile[kMaxMr * kMaxNr] = {};
  uk.run(kc, ap, bp, tile, nr_full);
  for (index_t i = 0; i < mr; ++i) {
    double* crow = ct + i * ldc;
    const double* trow = tile + i * nr_full;
    if (mode == Store::kAccum) {
      for (index_t j = 0; j < nr; ++j) crow[j] += trow[j];
    } else {
      for (index_t j = 0; j < nr; ++j) crow[j] = trow[j];
    }
  }
}

/// The part [lo, hi) of a packed K block one mr-row strip multiplies, and
/// how it writes its tiles.
struct StripCut {
  index_t lo;
  index_t hi;
  Store mode;
};

/// One jr strip of the macro-kernel: every ir strip of the mc x nc block
/// against packed panels of depth kc, each over the K range cut(ir, mr)
/// gives it (an empty range skips the strip).
template <class Cut>
void macro_strip(const MicroKernel& uk, index_t kc, index_t mc, index_t nc,
                 const double* apack, const double* bpack, double* c,
                 index_t ldc, index_t jr_strip, const Cut& cut) {
  const index_t mr_full = uk.mr;
  const index_t nr_full = uk.nr;
  const index_t jr = jr_strip * nr_full;
  const index_t nr = std::min(nr_full, nc - jr);
  const double* bp = bpack + jr * kc;
  for (index_t ir = 0; ir < mc; ir += mr_full) {
    const index_t mr = std::min(mr_full, mc - ir);
    const StripCut sc = cut(ir, mr);
    if (sc.lo >= sc.hi) continue;
    macro_tile(uk, sc.hi - sc.lo, apack + ir * kc + sc.lo * mr_full,
               bp + sc.lo * nr_full, c + ir * ldc + jr, ldc, mr, nr,
               sc.mode);
  }
}

/// Run a team body over the m rows of an m x n x k product: as one pool
/// dispatch when the dense 2mnk flops reach kMtFlopThreshold (at most
/// one participant per mr-row strip), else inline as (0, 1).
void run_product(index_t m, index_t n, index_t k, index_t mr,
                 void (*body)(int, int, void*), void* ctx) {
  ThreadPool& pool = ThreadPool::instance();
  const index_t mstrips = (m + mr - 1) / mr;
  int nt = pool.active_threads();
  if (nt > mstrips) nt = static_cast<int>(mstrips);
  const bool fan_out = nt > 1 && 2.0 * static_cast<double>(m) *
                                         static_cast<double>(n) *
                                         static_cast<double>(k) >=
                                     kMtFlopThreshold;
  if (fan_out) {
    pool.run_team(nt, body, ctx);
  } else {
    body(0, 1, ctx);
  }
}

/// Columns [lo, hi) of row i of the m x k matrix A that a product reads:
/// the whole row, or its part of a square A's triangle.
template <Tri kTri>
std::pair<index_t, index_t> row_span(index_t i, index_t k) {
  if constexpr (kTri == Tri::kLower) {
    return {0, i + 1};
  } else if constexpr (kTri == Tri::kUpper) {
    return {i, k};
  } else {
    return {0, k};
  }
}

/// The i-l-j loop for small products, alpha folded into the A element
/// (C += alpha * A * B; beta already applied). Each row runs only over
/// its row_span, so its result equals the packed path's up to summation
/// order.
template <Tri kTri>
void product_naive(index_t m, index_t n, index_t k, double alpha,
                   const double* a, index_t lda, const double* b,
                   index_t ldb, double* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    const auto [l0, l1] = row_span<kTri>(i, k);
    double* crow = c + i * ldc;
    for (index_t l = l0; l < l1; ++l) {
      const double av = alpha * a[i * lda + l];
      const double* brow = b + l * ldb;
      for (index_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C = alpha * A * B + beta * C with A m x k (only its kTri part read),
/// B k x n and C m x n: all a participant needs, and all of it read-only
/// but its own band of C.
struct Product {
  const MicroKernel* uk;
  index_t m, n, k, lda, ldb, ldc;
  double alpha, beta;
  const double* a;
  const double* b;
  double* c;
};

/// Rows [r0, r1) of participant tid of nt: whole mr-row strips, cut where
/// the area of A the rows above read (k elements a row of a dense A,
/// i + 1 of a lower triangle, k - i of an upper one) first reaches
/// tid / nt of the whole.
template <Tri kTri>
std::pair<index_t, index_t> row_band(index_t m, index_t k, index_t mr,
                                     int tid, int nt) {
  const auto area = [&](index_t r) {  // elements read by rows [0, r)
    if constexpr (kTri == Tri::kLower) {
      return r * (r + 1) / 2;
    } else if constexpr (kTri == Tri::kUpper) {
      return r * k - r * (r - 1) / 2;
    } else {
      return r * k;
    }
  };
  const auto cut = [&](int t) {
    index_t r = 0;
    while (r < m && area(r) * nt < area(m) * t) r = std::min(m, r + mr);
    return r;
  };
  return {cut(tid), cut(tid + 1)};
}

/// The packed product as a TEAM BODY with no barrier: the participant
/// owns its band of C rows, applies beta to it, packs its A strips and
/// the B rows its band reads into its own arenas, and runs the five-loop
/// nest over them. It takes the K blocks in order, skips those outside a
/// triangle and cuts each strip's part of a straddling one at the
/// diagonal; the other triangle packs as zero and is never read. So
/// every element sums the same nonzero terms in the same order as the
/// dense product with that triangle zero, at any team size. Called
/// directly as (0, 1) on the single-threaded path.
template <Tri kTri>
void product_body(int tid, int nt, void* p) {
  const auto& pr = *static_cast<const Product*>(p);
  const MicroKernel& uk = *pr.uk;
  const index_t mr_full = uk.mr;
  const index_t nr_full = uk.nr;

  const auto [r0, r1] = row_band<kTri>(pr.m, pr.k, mr_full, tid, nt);
  if (r0 == r1) return;
  // beta == 0 skips the zero-fill pass: each strip's first K block
  // overwrites its tiles (same values: 0 + x == x for every x an
  // accumulator can produce).
  const bool beta_zero = pr.beta == 0.0;
  if (!beta_zero)
    apply_beta(pr.beta, r1 - r0, pr.n, pr.c + r0 * pr.ldc, pr.ldc);
  // The columns of A, rows of B, that the band reads.
  const index_t need_lo = row_span<kTri>(r0, pr.k).first;
  const index_t need_hi = row_span<kTri>(r1 - 1, pr.k).second;

  // Packing scratch comes from this thread's arenas: no allocation per
  // call, 64-byte aligned, and never seen by another thread. Ranks are
  // fibers that never yield inside a kernel call, so a thread's arenas
  // are never shared mid-flight.
  double* apack = pack_arena_a().ensure(static_cast<std::size_t>(
      round_up(std::min(kMc, r1 - r0), mr_full) * std::min(kKc, pr.k)));
  double* bpack = pack_arena_b().ensure(static_cast<std::size_t>(
      std::min(kKc, pr.k) * round_up(std::min(kNc, pr.n), nr_full)));

  for (index_t jc = 0; jc < pr.n; jc += kNc) {
    const index_t nc = std::min(kNc, pr.n - jc);
    const index_t bstrips = (nc + nr_full - 1) / nr_full;
    for (index_t pc = 0; pc < pr.k; pc += kKc) {
      const index_t klo = std::max(pc, need_lo);
      const index_t khi = std::min(pc + kKc, need_hi);
      if (klo >= khi) continue;
      const index_t kc = khi - klo;
      pack_b_strips(pr.b + klo * pr.ldb + jc, pr.ldb, kc, nc, nr_full, bpack);
      for (index_t ic = r0; ic < r1; ic += kMc) {
        const index_t mc = std::min(kMc, r1 - ic);
        if (row_span<kTri>(ic + mc - 1, pr.k).second <= klo ||
            row_span<kTri>(ic, pr.k).first >= khi)
          continue;  // no row of the block reads this K block
        pack_a_strips<kTri>(pr.a + ic * pr.lda + klo, pr.lda, mc, kc,
                            pr.alpha, mr_full, apack, ic - klo);
        // A strip reads the columns its rows span. The K block holding
        // the first of them (pc == 0 unless A is upper) assigns when
        // beta == 0.
        const auto cut = [&](index_t ir, index_t mr) {
          const index_t lo = row_span<kTri>(ic + ir, pr.k).first;
          const index_t hi = row_span<kTri>(ic + ir + mr - 1, pr.k).second;
          return StripCut{
              std::max(klo, lo) - klo, std::min(khi, hi) - klo,
              beta_zero && pc <= lo ? Store::kAssign : Store::kAccum};
        };
        for (index_t s = 0; s < bstrips; ++s)
          macro_strip(uk, kc, mc, nc, apack, bpack, pr.c + ic * pr.ldc + jc,
                      pr.ldc, s, cut);
      }
    }
  }
}

/// The one entry of every product: zero sizes, alpha == 0 and (unless
/// the caller forces the packed path) small products stay on one thread
/// without packing; the rest run product_body under run_product's
/// fan-out rule, on the dense 2mnk count.
template <Tri kTri>
void product(const MicroKernel& uk, index_t m, index_t n, index_t k,
             double alpha, const double* a, index_t lda, const double* b,
             index_t ldb, double beta, double* c, index_t ldc,
             bool allow_naive) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    apply_beta(beta, m, n, c, ldc);
    return;
  }
  if (allow_naive && m * n * k <= kSmallProduct) {
    apply_beta(beta, m, n, c, ldc);
    product_naive<kTri>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  Product pr{&uk, m, n, k, lda, ldb, ldc, alpha, beta, a, b, c};
  run_product(m, n, k, uk.mr, product_body<kTri>, &pr);
}

}  // namespace

void gemm(index_t m, index_t n, index_t k, double alpha, const double* a,
          index_t lda, const double* b, index_t ldb, double beta, double* c,
          index_t ldc) {
  product<Tri::kDense>(active_microkernel(), m, n, k, alpha, a, lda, b, ldb,
                       beta, c, ldc, /*allow_naive=*/true);
}

void gemm_with(const MicroKernel& uk, index_t m, index_t n, index_t k,
               double alpha, const double* a, index_t lda, const double* b,
               index_t ldb, double beta, double* c, index_t ldc) {
  product<Tri::kDense>(uk, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                       /*allow_naive=*/false);
}

void trmm(bool lower, index_t n, index_t k, double alpha, const double* t,
          index_t ldt, const double* b, index_t ldb, double beta, double* c,
          index_t ldc) {
  const auto run = lower ? product<Tri::kLower> : product<Tri::kUpper>;
  run(active_microkernel(), n, k, n, alpha, t, ldt, b, ldb, beta, c, ldc,
      /*allow_naive=*/true);
}

}  // namespace catrsm::la::kernel
