#include "support/rng.hpp"

namespace catrsm {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(gen_);
}

long long Rng::uniform_int(long long lo, long long hi) {
  std::uniform_int_distribution<long long> d(lo, hi);
  return d(gen_);
}

Rng Rng::child(std::uint64_t index) const {
  // splitmix64 of (state-independent) index to decorrelate child streams.
  std::uint64_t z = index + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return Rng(z ^ 0xda3e39cb94b95bdbULL);
}

}  // namespace catrsm
