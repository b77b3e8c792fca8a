#include <optional>
#include <string>

#include "la/kernel/ukr.hpp"
#include "support/env.hpp"

namespace catrsm::la::kernel {

namespace {

std::optional<Backend> parse_backend(const std::string& s) {
  if (s == "scalar") return Backend::kScalar;
  if (s == "avx2") return Backend::kAvx2;
  if (s == "avx512") return Backend::kAvx512;
  return std::nullopt;
}

Backend widest_supported() {
  if (cpu_supports(Backend::kAvx512)) return Backend::kAvx512;
  if (cpu_supports(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kScalar;
}

Backend select() {
  Backend chosen = widest_supported();
  const std::string req = env::string_or("CATRSM_KERNEL", "");
  if (!req.empty()) {
    const std::optional<Backend> want = parse_backend(req);
    if (!want.has_value()) {
      env::warn_invalid("CATRSM_KERNEL", "not recognized (scalar|avx2|avx512)",
                        microkernel_for(chosen)->name);
    } else if (!cpu_supports(*want)) {
      env::warn_invalid("CATRSM_KERNEL", "not supported on this CPU",
                        microkernel_for(chosen)->name);
    } else {
      chosen = *want;
    }
  }
  return chosen;
}

Backend selected_backend() {
  static const Backend b = select();
  return b;
}

}  // namespace

const MicroKernel* microkernel_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return scalar_microkernel();
    case Backend::kAvx2:
      return avx2_microkernel();
    case Backend::kAvx512:
      return avx512_microkernel();
  }
  return nullptr;
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Backend::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
}

const MicroKernel& active_microkernel() {
  static const MicroKernel* const k = microkernel_for(selected_backend());
  return *k;
}

Backend active_backend() { return active_microkernel().backend; }

const char* backend_name() { return active_microkernel().name; }

}  // namespace catrsm::la::kernel
