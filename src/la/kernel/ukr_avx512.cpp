#include "la/kernel/ukr.hpp"

// AVX-512F tiles, stamped like the AVX2 TU: one body macro, two store
// variants that differ only in the final tile write. Only
// avx512f is required, which every AVX-512 CPU provides.

#include <immintrin.h>

namespace catrsm::la::kernel {

namespace {

constexpr int kPrefetchAhead = 4;  // k iterations

// ---------------------------------------------------------------------------
// f64: 8x16 tile — 16 zmm accumulators + 2 B vectors + 1 broadcast = 19
// of 32 registers; 16 FMAs per k iteration against 10 loads.

constexpr int kMr64 = 8;
constexpr int kNr64 = 16;

#define CATRSM_AVX512_F64_BODY(WRITE)                                      \
  __m512d acc[kMr64][2];                                                   \
  for (int i = 0; i < kMr64; ++i) {                                        \
    acc[i][0] = _mm512_setzero_pd();                                       \
    acc[i][1] = _mm512_setzero_pd();                                       \
  }                                                                        \
  for (index_t l = 0; l < kc; ++l) {                                       \
    _mm_prefetch(reinterpret_cast<const char*>(ap + kMr64 * kPrefetchAhead), \
                 _MM_HINT_T0);                                             \
    _mm_prefetch(reinterpret_cast<const char*>(bp + kNr64 * kPrefetchAhead), \
                 _MM_HINT_T0);                                             \
    _mm_prefetch(                                                          \
        reinterpret_cast<const char*>(bp + kNr64 * kPrefetchAhead + 8),    \
        _MM_HINT_T0);                                                      \
    const __m512d b0 = _mm512_loadu_pd(bp);                                \
    const __m512d b1 = _mm512_loadu_pd(bp + 8);                            \
    for (int i = 0; i < kMr64; ++i) {                                      \
      const __m512d ai = _mm512_set1_pd(ap[i]);                            \
      acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);                      \
      acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);                      \
    }                                                                      \
    ap += kMr64;                                                           \
    bp += kNr64;                                                           \
  }                                                                        \
  for (int i = 0; i < kMr64; ++i) {                                        \
    double* crow = c + i * ldc;                                            \
    WRITE(crow, 0, acc[i][0]);                                             \
    WRITE(crow, 8, acc[i][1]);                                             \
  }

#define CATRSM_WRITE_ACC_PD(crow, off, v) \
  _mm512_storeu_pd((crow) + (off),        \
                   _mm512_add_pd(_mm512_loadu_pd((crow) + (off)), (v)))
#define CATRSM_WRITE_ST_PD(crow, off, v) _mm512_storeu_pd((crow) + (off), (v))

__attribute__((target("avx512f"))) void run_f64(index_t kc, const double* ap,
                                                const double* bp, double* c,
                                                index_t ldc) {
  CATRSM_AVX512_F64_BODY(CATRSM_WRITE_ACC_PD)
}

__attribute__((target("avx512f"))) void run_store_f64(index_t kc,
                                                      const double* ap,
                                                      const double* bp,
                                                      double* c, index_t ldc) {
  CATRSM_AVX512_F64_BODY(CATRSM_WRITE_ST_PD)
}

}  // namespace

const MicroKernel* avx512_microkernel() {
  static const MicroKernel k{Backend::kAvx512, "avx512",     kMr64, kNr64,
                             run_f64,          run_store_f64};
  return &k;
}

}  // namespace catrsm::la::kernel
