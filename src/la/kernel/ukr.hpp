#pragma once
// Internal: per-backend micro-kernel registrations. Each TU owns one inner
// kernel family (accumulate / store variants) so the SIMD ones can be
// built with function-level target attributes without leaking wider ISAs
// into the rest of the library.

#include "la/kernel/kernel.hpp"

namespace catrsm::la::kernel {

const MicroKernel* scalar_microkernel();
const MicroKernel* avx2_microkernel();
const MicroKernel* avx512_microkernel();

}  // namespace catrsm::la::kernel
