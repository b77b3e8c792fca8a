#include "la/kernel/ukr.hpp"

namespace catrsm::la::kernel {

namespace {

// 4x8 accumulator tile in plain C. The fixed trip
// counts let the compiler keep the tile in registers and auto-vectorize
// to whatever the baseline ISA offers; there are deliberately no
// data-dependent branches (a zero test per element defeats vectorization
// and makes throughput depend on the input's sparsity). The packed
// panels are streamed with a software prefetch a few k iterations ahead
// — the access pattern is perfectly sequential, but the hardware
// prefetcher restarts at every panel boundary.
constexpr int kMr = 4;
constexpr int kNr = 8;
constexpr int kPrefetchAhead = 4;  // k iterations

template <bool kAccum>
void run_impl(index_t kc, const double* ap, const double* bp, double* c,
              index_t ldc) {
  double acc[kMr][kNr] = {};
  for (index_t l = 0; l < kc; ++l) {
    __builtin_prefetch(ap + kMr * kPrefetchAhead, 0, 3);
    __builtin_prefetch(bp + kNr * kPrefetchAhead, 0, 3);
    for (int i = 0; i < kMr; ++i)
      for (int j = 0; j < kNr; ++j) acc[i][j] += ap[i] * bp[j];
    ap += kMr;
    bp += kNr;
  }
  for (int i = 0; i < kMr; ++i) {
    double* crow = c + i * ldc;
    if (kAccum) {
      for (int j = 0; j < kNr; ++j) crow[j] += acc[i][j];
    } else {
      for (int j = 0; j < kNr; ++j) crow[j] = acc[i][j];
    }
  }
}

}  // namespace

const MicroKernel* scalar_microkernel() {
  static const MicroKernel k{Backend::kScalar, "scalar", kMr, kNr,
                             run_impl<true>, run_impl<false>};
  return &k;
}

}  // namespace catrsm::la::kernel
