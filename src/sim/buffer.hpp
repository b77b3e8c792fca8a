#pragma once
// Zero-copy message payloads for the simulated transport stack.
//
// A Buffer is an immutable view (offset + length) into a refcounted slab
// of doubles (sim/slab.hpp: pooled uninitialized storage, or an adopted
// std::vector). Sending a Buffer shares the slab (a refcount bump, no
// copy); slicing a received payload into per-block views is free; and the
// slab is released — pooled storage back to the slab pool, recycled
// across Machine runs — when the last view drops. Mutation goes through
// mutable_data(), which writes in place only when this view is the slab's
// sole owner and copies otherwise (copy-on-write), so aliased views can
// never observe each other's writes.
//
// Ownership rules for user SPMD code: treat every Buffer handed to send()
// or returned by recv() as frozen. Build payloads either in a
// std::vector<double> moved into a Buffer (zero-copy adoption), in an
// uninitialized pooled slab via Buffer::uninit(n) + mutable_data() (no
// memset, no malloc when the pool has a slab of this size class), or
// pass a span (one copy, at the boundary, exactly where the old
// transport copied).

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "sim/slab.hpp"

namespace catrsm::sim {

class Buffer {
 public:
  using value_type = double;

  /// Empty view of no slab.
  Buffer() = default;

  /// Adopt `v` as a fresh slab (zero-copy for rvalues).
  Buffer(std::vector<double> v)
      : slab_(Slab::adopt(std::move(v))), off_(0), len_(slab_->size()) {}

  /// Copy `s` into a fresh pooled slab (the migration path for span call
  /// sites — one copy, no value-init of the destination).
  Buffer(std::span<const double> s);
  Buffer(std::span<double> s) : Buffer(std::span<const double>(s)) {}
  Buffer(std::initializer_list<double> init)
      : Buffer(std::span<const double>(init.begin(), init.size())) {}

  /// A writable view of n UNINITIALIZED doubles on a pooled slab: fill
  /// every element through mutable_data() before sharing it. The
  /// allocation-free way to build a payload that is computed, not copied.
  static Buffer uninit(std::size_t n);

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  const double* data() const { return slab_ ? slab_->data() + off_ : nullptr; }
  double operator[](std::size_t i) const { return *(data() + i); }
  const double* begin() const { return data(); }
  const double* end() const { return data() + len_; }

  std::span<const double> span() const { return {data(), len_}; }
  operator std::span<const double>() const { return span(); }

  /// Zero-copy sub-view [off, off + len) of this view.
  Buffer slice(std::size_t off, std::size_t len) const;

  /// True when both views live on the same slab (regardless of overlap).
  bool aliases(const Buffer& other) const {
    return slab_ != nullptr && slab_ == other.slab_;
  }
  /// Number of views (and in-flight messages) sharing this slab; 0 when
  /// empty. Observability hook for the refcount-release tests.
  long use_count() const { return slab_ ? slab_.use_count() : 0; }
  std::size_t offset() const { return off_; }

  /// Copy-on-write mutable access to the viewed elements: in place when
  /// this view solely owns the slab, else the view reseats onto a private
  /// copy first. Never visible through other views.
  double* mutable_data();

  /// The viewed elements as a fresh std::vector (always copies).
  std::vector<double> to_vector() const {
    return std::vector<double>(begin(), end());
  }

 private:
  friend Buffer concat(std::span<const Buffer> parts);

  Buffer(std::shared_ptr<Slab> slab, std::size_t off, std::size_t len)
      : slab_(std::move(slab)), off_(off), len_(len) {}

  std::shared_ptr<Slab> slab_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// Concatenate views into one. When the parts are adjacent views of a
/// single slab (the common case when re-forwarding slices of a received
/// payload) the result is a zero-copy slice of that slab; otherwise the
/// parts are packed into a fresh pooled slab.
Buffer concat(std::span<const Buffer> parts);

}  // namespace catrsm::sim
