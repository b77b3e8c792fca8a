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

// Below this flop count (2*m*n*k) even a single team dispatch plus its
// barriers beats the speedup; stay on one thread. Engagement never
// changes the arithmetic — only which thread executes an index — so
// results are identical either way. Measured on the 2-core CI box:
// n=512 square (2.7e8 flops) ran ~15% SLOWER fanned out than inline —
// the per-K-pass barriers dominate at that size — while n=1024 (2.1e9)
// still gains, so the threshold sits between the two.
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

/// Which elements of A a pack reads: all of them (gemm), or one triangle
/// of a square matrix (trmm), whose other triangle packs as zero.
enum class Tri { kDense, kLower, kUpper };

/// Pack mr-row strips [s0, s1) of A(m x k, stride lda), column-major
/// within each strip, alpha folded in; rows past m are zero so the inner
/// kernel never needs an m-edge branch. Each strip writes a disjoint
/// k * mr_full range of ap, so strips parallelize freely. Under kLower
/// (kUpper) element (i, l) is read only when l <= i + off (l >= i + off),
/// `off` being the panel's first row minus its first column in the whole
/// matrix, and packs as zero otherwise.
template <Tri kTri = Tri::kDense>
void pack_a_strips(const double* a, index_t lda, index_t m, index_t k,
                   double alpha, index_t mr_full, double* ap, index_t s0,
                   index_t s1, index_t off = 0) {
  for (index_t s = s0; s < s1; ++s) {
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

/// Pack nr-column strips [s0, s1) of B(k x n, stride ldb), row-major
/// within each strip, zero-padded past n. Disjoint writes per strip (and
/// strip boundaries land on cache lines: k * nr_full * sizeof(double) is a
/// multiple of 64 for every backend), so cooperative packing never
/// false-shares.
void pack_b_strips(const double* b, index_t ldb, index_t k, index_t n,
                   index_t nr_full, double* bp, index_t s0, index_t s1) {
  for (index_t s = s0; s < s1; ++s) {
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

/// Branch-free i-l-j loop for small products, alpha folded into the A
/// element (C += alpha * A * B; beta already applied).
void gemm_naive(index_t m, index_t n, index_t k, double alpha,
                const double* a, index_t lda, const double* b, index_t ldb,
                double* c, index_t ldc) {
  for (index_t i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    for (index_t l = 0; l < k; ++l) {
      const double av = alpha * a[i * lda + l];
      const double* brow = b + l * ldb;
      for (index_t j = 0; j < n; ++j) crow[j] += av * brow[j];
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

/// Everything a team participant needs. The B pack buffer is shared (the
/// master's arena); A panels are per-thread (each participant's own
/// arena).
struct TeamCtx {
  const MicroKernel* uk;
  index_t m, n, k, lda, ldb, ldc;
  double alpha;
  const double* a;
  const double* b;
  double* c;
  double* bpack;
  bool beta_zero;   // first K pass may overwrite C
  TeamBarrier* barrier;
};

/// The five-loop packed driver as a TEAM BODY: every participant runs the
/// same loop nest, cooperatively packing the shared B panel and then
/// sweeping its own contiguous band of C rows (per-thread C ownership —
/// its band's A panels live in its own arena, and no other thread ever
/// writes its rows). Two spin barriers per (jc, pc) block: packed B must
/// be complete before anyone consumes it, and fully consumed before
/// anyone repacks it. Called directly as (0, 1) on the single-threaded
/// path, so both paths execute literally the same arithmetic.
void gemm_team_body(int tid, int nt, void* p) {
  auto& tc = *static_cast<TeamCtx*>(p);
  const MicroKernel& uk = *tc.uk;
  const index_t mr_full = uk.mr;
  const index_t nr_full = uk.nr;

  // This thread's band of C rows, split on micro-tile boundaries.
  const index_t mstrips = (tc.m + mr_full - 1) / mr_full;
  const index_t band0 = (mstrips * tid / nt) * mr_full;
  const index_t band1 = std::min(tc.m, (mstrips * (tid + 1) / nt) * mr_full);
  const index_t band_m = band1 - band0;

  // Per-thread A arena (thread-local: workers each get their own).
  double* apack = nullptr;
  if (band_m > 0)
    apack = pack_arena_a().ensure(static_cast<std::size_t>(
        round_up(std::min(kMc, band_m), mr_full) * std::min(kKc, tc.k)));

  for (index_t jc = 0; jc < tc.n; jc += kNc) {
    const index_t nc = std::min(kNc, tc.n - jc);
    const index_t bstrips = (nc + nr_full - 1) / nr_full;
    for (index_t pc = 0; pc < tc.k; pc += kKc) {
      const index_t kc = std::min(kKc, tc.k - pc);
      // Cooperative B pack: contiguous strip ranges per thread.
      pack_b_strips(tc.b + pc * tc.ldb + jc, tc.ldb, kc, nc, nr_full,
                    tc.bpack, bstrips * tid / nt, bstrips * (tid + 1) / nt);
      tc.barrier->wait(nt);

      const Store mode =
          tc.beta_zero && pc == 0 ? Store::kAssign : Store::kAccum;
      const auto whole = [&](index_t, index_t) {
        return StripCut{0, kc, mode};
      };
      for (index_t ic = band0; ic < band1; ic += kMc) {
        const index_t mc = std::min(kMc, band1 - ic);
        pack_a_strips(tc.a + ic * tc.lda + pc, tc.lda, mc, kc, tc.alpha,
                      mr_full, apack, 0, (mc + mr_full - 1) / mr_full);
        for (index_t s = 0; s < bstrips; ++s)
          macro_strip(uk, kc, mc, nc, apack, tc.bpack,
                      tc.c + ic * tc.ldc + jc, tc.ldc, s, whole);
      }
      // B fully consumed; the next (pc/jc) iteration repacks it.
      tc.barrier->wait(nt);
    }
  }
}

void gemm_packed(const MicroKernel& uk, index_t m, index_t n, index_t k,
                 double alpha, const double* a, index_t lda, const double* b,
                 index_t ldb, double beta, double* c, index_t ldc) {
  const index_t nr_full = uk.nr;

  // beta == 0 skips the zero-fill pass entirely: the first K pass of the
  // macro-kernel overwrites C (same values — 0 + x == x for every x an
  // accumulator can produce).
  const bool beta_zero = beta == 0.0;
  if (!beta_zero) apply_beta(beta, m, n, c, ldc);

  // Packing scratch comes from thread-local arenas: no allocation (and
  // no value-init) per call, 64-byte aligned, reused across calls. Ranks
  // are fibers that never yield inside a kernel call, so thread-locals
  // cannot be shared mid-flight. The B arena is the MASTER's and is
  // shared by the whole team; workers only receive the pointer through
  // the dispatch (which synchronizes), and every write between barriers
  // is to a disjoint strip.
  double* bpack = pack_arena_b().ensure(static_cast<std::size_t>(
      std::min(kKc, k) * round_up(std::min(kNc, n), nr_full)));

  TeamBarrier barrier;
  TeamCtx ctx{&uk, m, n, k, lda, ldb, ldc, alpha,
              a,   b, c, bpack, beta_zero, &barrier};
  run_product(m, n, k, uk.mr, gemm_team_body, &ctx);
}

void gemm_entry(const MicroKernel& uk, index_t m, index_t n, index_t k,
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
    gemm_naive(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  gemm_packed(uk, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// What a trmm participant needs; unlike gemm's, nothing is shared but
/// the read-only operands.
struct TrmmCtx {
  const MicroKernel* uk;
  bool lower;
  index_t n, k, ldt, ldb, ldc;
  double alpha, beta;
  const double* t;
  const double* b;
  double* c;
};

/// Rows [r0, r1) of participant tid of nt: whole mr-row strips, cut where
/// the triangle's area above them (row i holds i + 1 elements of a lower
/// triangle, n - i of an upper one) first reaches tid / nt of the whole.
std::pair<index_t, index_t> triangle_band(bool lower, index_t n, index_t mr,
                                          int tid, int nt) {
  const auto area = [&](index_t r) {  // elements in rows [0, r)
    return lower ? r * (r + 1) / 2 : r * n - r * (r - 1) / 2;
  };
  const auto cut = [&](int t) {
    index_t r = 0;
    while (r < n && area(r) * nt < area(n) * t) r = std::min(n, r + mr);
    return r;
  };
  return {cut(tid), cut(tid + 1)};
}

/// C = alpha * tri(T) * B + beta * C as a TEAM BODY with no barrier: the
/// participant owns its band of C rows, applies beta to it, packs the B
/// rows its band reads into its own arena and runs gemm's loops over
/// them. It takes gemm's K blocks in gemm's order, skips those outside
/// the triangle and cuts each strip's part of a straddling one at the
/// diagonal; the other triangle packs as zero and is never read. So every
/// element sums the same nonzero terms in the same order as the dense
/// product with that triangle zero, at any team size.
void trmm_team_body(int tid, int nt, void* p) {
  const auto& tc = *static_cast<const TrmmCtx*>(p);
  const MicroKernel& uk = *tc.uk;
  const index_t mr_full = uk.mr;
  const index_t nr_full = uk.nr;

  const auto [r0, r1] = triangle_band(tc.lower, tc.n, mr_full, tid, nt);
  if (r0 == r1) return;
  const bool beta_zero = tc.beta == 0.0;
  if (!beta_zero) apply_beta(tc.beta, r1 - r0, tc.k, tc.c + r0 * tc.ldc,
                             tc.ldc);
  // The columns of T, rows of B, that the band reads.
  const index_t need_lo = tc.lower ? 0 : r0;
  const index_t need_hi = tc.lower ? r1 : tc.n;

  double* apack = pack_arena_a().ensure(static_cast<std::size_t>(
      round_up(std::min(kMc, r1 - r0), mr_full) * std::min(kKc, tc.n)));
  double* bpack = pack_arena_b().ensure(static_cast<std::size_t>(
      std::min(kKc, tc.n) * round_up(std::min(kNc, tc.k), nr_full)));

  for (index_t jc = 0; jc < tc.k; jc += kNc) {
    const index_t nc = std::min(kNc, tc.k - jc);
    const index_t bstrips = (nc + nr_full - 1) / nr_full;
    for (index_t pc = 0; pc < tc.n; pc += kKc) {
      const index_t klo = std::max(pc, need_lo);
      const index_t khi = std::min(pc + kKc, need_hi);
      if (klo >= khi) continue;
      const index_t kc = khi - klo;
      pack_b_strips(tc.b + klo * tc.ldb + jc, tc.ldb, kc, nc, nr_full, bpack,
                    0, bstrips);
      for (index_t ic = r0; ic < r1; ic += kMc) {
        const index_t mc = std::min(kMc, r1 - ic);
        if (tc.lower ? klo >= ic + mc : khi <= ic) continue;
        const index_t astrips = (mc + mr_full - 1) / mr_full;
        if (tc.lower) {
          pack_a_strips<Tri::kLower>(tc.t + ic * tc.ldt + klo, tc.ldt, mc,
                                     kc, tc.alpha, mr_full, apack, 0,
                                     astrips, ic - klo);
        } else {
          pack_a_strips<Tri::kUpper>(tc.t + ic * tc.ldt + klo, tc.ldt, mc,
                                     kc, tc.alpha, mr_full, apack, 0,
                                     astrips, ic - klo);
        }
        // A strip reads this block up to its last row (lower) or from its
        // first (upper). Its first block of the triangle assigns when
        // beta == 0: pc == 0 for a lower T, the block holding row g0 for
        // an upper one.
        const auto cut = [&](index_t ir, index_t mr) {
          const index_t g0 = ic + ir;
          const bool first = tc.lower ? pc == 0 : pc <= g0;
          return StripCut{
              tc.lower ? 0 : std::max(klo, g0) - klo,
              tc.lower ? std::min(khi, g0 + mr) - klo : kc,
              beta_zero && first ? Store::kAssign : Store::kAccum};
        };
        for (index_t s = 0; s < bstrips; ++s)
          macro_strip(uk, kc, mc, nc, apack, bpack, tc.c + ic * tc.ldc + jc,
                      tc.ldc, s, cut);
      }
    }
  }
}

}  // namespace

void gemm(index_t m, index_t n, index_t k, double alpha, const double* a,
          index_t lda, const double* b, index_t ldb, double beta, double* c,
          index_t ldc) {
  gemm_entry(active_microkernel(), m, n, k, alpha, a, lda, b, ldb, beta, c,
             ldc, /*allow_naive=*/true);
}

void gemm_with(const MicroKernel& uk, index_t m, index_t n, index_t k,
               double alpha, const double* a, index_t lda, const double* b,
               index_t ldb, double beta, double* c, index_t ldc) {
  gemm_entry(uk, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
             /*allow_naive=*/false);
}

void trmm(bool lower, index_t n, index_t k, double alpha, const double* t,
          index_t ldt, const double* b, index_t ldb, double beta, double* c,
          index_t ldc) {
  if (n == 0 || k == 0) return;
  if (alpha == 0.0) {
    apply_beta(beta, n, k, c, ldc);
    return;
  }
  // gemm's small-product and fan-out rules, on the dense n x k x n count.
  if (n * k * n <= kSmallProduct) {
    apply_beta(beta, n, k, c, ldc);
    for (index_t i = 0; i < n; ++i) {
      const index_t l0 = lower ? 0 : i;
      const index_t l1 = lower ? i + 1 : n;
      gemm_naive(index_t{1}, k, l1 - l0, alpha, t + i * ldt + l0, ldt,
                 b + l0 * ldb, ldb, c + i * ldc, ldc);
    }
    return;
  }
  const MicroKernel& uk = active_microkernel();
  TrmmCtx ctx{&uk, lower, n, k, ldt, ldb, ldc, alpha, beta, t, b, c};
  run_product(n, k, n, uk.mr, trmm_team_body, &ctx);
}

}  // namespace catrsm::la::kernel
