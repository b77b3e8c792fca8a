#pragma once
// Packed, register-tiled GEMM micro-kernel layer (BLIS-style).
//
// The flop substrate of every distributed algorithm in this repo is the
// sequential la:: routines, and those now bottom out here: a strided GEMM
// driver packs panels of A and B into contiguous MR- / NR-wide tiles and
// streams them through a small register-tiled inner kernel. Each backend
// (portable scalar, AVX2/FMA, AVX-512F) is selected once per process by
// CPU detection and overridable with CATRSM_KERNEL=scalar|avx2|avx512.
//
// Every product — dense gemm and the out-of-place triangular trmm alike —
// goes through one entry and one team body, templated on which part of A
// it reads. Large products fan out over a persistent worker pool
// (kernel/pool.hpp, CATRSM_KERNEL_THREADS) as ONE barrier-free team
// dispatch: each participant owns MR-aligned rows of C holding 1/nt of
// the area of A they read, applies beta to them, and packs its A strips
// and the B rows they read into its own arenas. It takes the K blocks in
// order; a triangular product skips those outside the triangle and cuts
// a straddling one at the diagonal, so for a T whose other triangle is
// zero trmm equals the dense gemm bit for bit at half the flops. The
// split only decides which thread computes an element, never what it
// computes, so results are bit-identical at any pool size. The pool
// composes with the simulator rather than fighting it: calls issued from
// inside a simulated rank (exec::in_sim_rank()) always run
// single-threaded, because sim::RankScheduler already multiplexes the p
// ranks over the physical cores — only direct/library callers fan out.
//
// Single-core micro-wins: the inner kernels software-prefetch the packed
// panels a few iterations ahead, and on the first K-blocking pass of a
// beta == 0 product the C tile is written with plain stores instead of
// read-modify-write — same values to the bit, less traffic.
//
// Modeled costs (S, W, F) are charged by the distributed layers from
// closed-form flop formulas, so nothing in this layer affects the
// simulator's accounting.

#include "la/matrix.hpp"

namespace catrsm::la::kernel {

enum class Backend { kScalar, kAvx2, kAvx512 };

/// A register-tiled inner kernel: accumulates an mr x nr tile of C from
/// packed panels,
///
///   c[i*ldc + j] += sum_l ap[l*mr + i] * bp[l*nr + j]   (l = 0..kc)
///
/// where ap is an A panel packed column-major within an mr-row strip and
/// bp is a B panel packed row-major within an nr-column strip.
///
/// run_store writes the tile instead of accumulating (c = tile; C may be
/// uninitialized), used on the first K-blocking pass when beta == 0. Both
/// compute bit-identical values — only the final tile write differs.
struct MicroKernel {
  Backend backend;
  const char* name;
  int mr;
  int nr;
  void (*run)(index_t kc, const double* ap, const double* bp, double* c,
              index_t ldc);
  void (*run_store)(index_t kc, const double* ap, const double* bp,
                    double* c, index_t ldc);
};

/// The micro-kernel the process dispatched to (resolved once, thread-safe).
/// Order of precedence: CATRSM_KERNEL env var if set and usable, else the
/// widest ISA the CPU supports. An unusable override warns on stderr and
/// falls back rather than aborting.
const MicroKernel& active_microkernel();
Backend active_backend();
const char* backend_name();

/// Kernel for a specific backend. Does not check CPU support — see
/// cpu_supports().
const MicroKernel* microkernel_for(Backend b);

/// Whether the running CPU can execute this backend's instructions.
bool cpu_supports(Backend b);

/// Strided row-major GEMM: C = alpha * A * B + beta * C.
/// A: m x k (leading dim lda), B: k x n (ldb), C: m x n (ldc).
/// C must not alias the regions of A or B that are read.
/// Small products take a branch-free naive loop (packing would dominate);
/// everything else goes through the packed micro-kernel path.
void gemm(index_t m, index_t n, index_t k, double alpha, const double* a,
          index_t lda, const double* b, index_t ldb, double beta, double* c,
          index_t ldc);

/// Same, forcing a specific micro-kernel and always taking the packed path
/// (no small-product shortcut). Test hook: lets one process compare the
/// scalar tile against the dispatched one on every edge shape.
void gemm_with(const MicroKernel& uk, index_t m, index_t n, index_t k,
               double alpha, const double* a, index_t lda, const double* b,
               index_t ldb, double beta, double* c, index_t ldc);

/// Strided row-major triangular product C = alpha * tri(T) * B + beta * C.
/// T: n x n (ldt), of which only the lower (`lower`) or upper triangle,
/// diagonal included, is ever read; B: n x k (ldb); C: n x k (ldc), which
/// must not alias T or B. Bitwise equal to gemm(n, k, n, alpha, T, ...)
/// when T's other triangle is zero and B is finite, up to the sign of a
/// zero element of C.
void trmm(bool lower, index_t n, index_t k, double alpha, const double* t,
          index_t ldt, const double* b, index_t ldb, double beta, double* c,
          index_t ldc);

}  // namespace catrsm::la::kernel
