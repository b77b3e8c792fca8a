#pragma once
// Internal: per-backend micro-kernel registrations. Each TU owns one inner
// kernel family (accumulate / store variants) so the SIMD ones can be
// built with function-level target attributes without leaking wider ISAs
// into the rest of the library.

#include "la/kernel/kernel.hpp"

// Single source of truth for "this build can carry x86 SIMD backends":
// the SIMD TUs compile their kernels (via function-level target
// attributes) and dispatch checks CPU features under exactly this gate.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define CATRSM_UKR_X86 1
#endif

namespace catrsm::la::kernel {

const MicroKernel* scalar_microkernel();
const MicroKernel* avx2_microkernel();    // nullptr on non-x86 builds
const MicroKernel* avx512_microkernel();  // nullptr on non-x86 builds

}  // namespace catrsm::la::kernel
