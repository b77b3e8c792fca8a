#pragma once
// Uninitialized-by-default storage slabs for sim::Buffer, recycled
// through a size-bucketed pool.
//
// The seed transport allocated a fresh std::vector<double> for every
// message payload; value-initialization memset memory that the very next
// line overwrote, and the malloc/free churn repeated across every
// Machine run of a batch. A Slab is either
//   - POOLED: a 64-byte-aligned, uninitialized array drawn from a global
//     freelist bucketed by power-of-two capacity and returned to it on
//     release (recycled across Machine runs), or
//   - ADOPTED: a std::vector<double> moved in by user code (the zero-copy
//     adoption path of Buffer(std::vector&&)); adopted storage never
//     touches the pool.
//
// Classes up to 8,192 doubles (64 KiB) first go through a per-thread LIFO
// cache (at most 16 slabs per class, 1 MiB per thread) that takes no
// lock: a release lands in the releasing thread's cache, and that
// thread's next acquisition of the class takes it back. A full cache
// releases to the shared pool under its mutex, and a thread's exit hands
// its cache to the shared pool; a slab released after that (by a later
// thread-exit or static destructor) goes to the shared pool directly.
// Larger classes always use the shared pool, so a thread that only frees
// them cannot strand them away from the thread that acquires them.
//
// Debug aid: with CATRSM_SLAB_POISON=1 (or la::set_uninit_poison(true),
// the flag la::Matrix::uninit also follows), every pooled acquisition,
// per-thread cache hits included, is filled with a NaN pattern, so a
// consumer that reads a word it never wrote propagates NaN instead of
// silently reusing stale message bytes.

#include <cstddef>
#include <memory>
#include <vector>

namespace catrsm::sim {

class Slab {
 public:
  /// Pooled slab of n doubles, contents unspecified (NaN-filled under
  /// poison mode). n == 0 yields a data() == nullptr slab.
  static std::shared_ptr<Slab> uninit(std::size_t n);

  /// Adopt a vector's storage (no copy, never pooled).
  static std::shared_ptr<Slab> adopt(std::vector<double> v);

  ~Slab();
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  double* data() noexcept { return data_; }
  const double* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  Slab() = default;

  std::vector<double> vec_;       // adopted storage
  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;      // pooled bucket capacity; 0 when adopted
};

}  // namespace catrsm::sim
