#pragma once
// Seeded, reproducible random number generation for tests, examples, and
// benchmark workload generators. One Rng per logical stream; never a global.

#include <cstdint>
#include <random>

namespace catrsm {

/// Deterministic random stream. Thin wrapper over mt19937_64 so call sites
/// never depend on <random> distribution idiosyncrasies directly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  long long uniform_int(long long lo, long long hi);

  /// Derive an independent child stream (stable function of seed & index).
  Rng child(std::uint64_t index) const;

 private:
  std::mt19937_64 gen_;
};

}  // namespace catrsm
