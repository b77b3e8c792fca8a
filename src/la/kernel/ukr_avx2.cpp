#include "la/kernel/ukr.hpp"

// The AVX2/FMA tiles are compiled via function-level target attributes so
// the rest of the library keeps its baseline ISA and the binary still runs
// on CPUs without AVX2 (dispatch guards execution at runtime). The two
// store variants (accumulate / plain store) are stamped from one body
// macro — only the final tile write differs, so the accumulated values
// are bit-identical across variants by construction.

#include <immintrin.h>

namespace catrsm::la::kernel {

namespace {

constexpr int kPrefetchAhead = 4;  // k iterations

// ---------------------------------------------------------------------------
// f64: 6x8 tile — 12 ymm accumulators + 2 B vectors + 1 A broadcast = 15
// of the 16 architectural registers; 12 FMAs per k iteration keeps both
// FMA ports saturated while the loads stay under the 2 load ports.

constexpr int kMr64 = 6;
constexpr int kNr64 = 8;

#define CATRSM_AVX2_F64_BODY(WRITE)                                        \
  __m256d acc[kMr64][2];                                                   \
  for (int i = 0; i < kMr64; ++i) {                                        \
    acc[i][0] = _mm256_setzero_pd();                                       \
    acc[i][1] = _mm256_setzero_pd();                                       \
  }                                                                        \
  for (index_t l = 0; l < kc; ++l) {                                       \
    _mm_prefetch(reinterpret_cast<const char*>(ap + kMr64 * kPrefetchAhead), \
                 _MM_HINT_T0);                                             \
    _mm_prefetch(reinterpret_cast<const char*>(bp + kNr64 * kPrefetchAhead), \
                 _MM_HINT_T0);                                             \
    const __m256d b0 = _mm256_loadu_pd(bp);                                \
    const __m256d b1 = _mm256_loadu_pd(bp + 4);                            \
    for (int i = 0; i < kMr64; ++i) {                                      \
      const __m256d ai = _mm256_broadcast_sd(ap + i);                      \
      acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);                      \
      acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);                      \
    }                                                                      \
    ap += kMr64;                                                           \
    bp += kNr64;                                                           \
  }                                                                        \
  for (int i = 0; i < kMr64; ++i) {                                        \
    double* crow = c + i * ldc;                                            \
    WRITE(crow, 0, acc[i][0]);                                             \
    WRITE(crow, 4, acc[i][1]);                                             \
  }

#define CATRSM_WRITE_ACC_PD(crow, off, v) \
  _mm256_storeu_pd((crow) + (off),        \
                   _mm256_add_pd(_mm256_loadu_pd((crow) + (off)), (v)))
#define CATRSM_WRITE_ST_PD(crow, off, v) _mm256_storeu_pd((crow) + (off), (v))

__attribute__((target("avx2,fma"))) void run_f64(index_t kc, const double* ap,
                                                 const double* bp, double* c,
                                                 index_t ldc) {
  CATRSM_AVX2_F64_BODY(CATRSM_WRITE_ACC_PD)
}

__attribute__((target("avx2,fma"))) void run_store_f64(index_t kc,
                                                       const double* ap,
                                                       const double* bp,
                                                       double* c,
                                                       index_t ldc) {
  CATRSM_AVX2_F64_BODY(CATRSM_WRITE_ST_PD)
}

}  // namespace

const MicroKernel* avx2_microkernel() {
  static const MicroKernel k{Backend::kAvx2, "avx2",       kMr64, kNr64,
                             run_f64,        run_store_f64};
  return &k;
}

}  // namespace catrsm::la::kernel
