#include "sim/buffer.hpp"

#include <cstring>

#include "support/check.hpp"

namespace catrsm::sim {

Buffer::Buffer(std::span<const double> s) {
  if (s.empty()) return;
  slab_ = Slab::uninit(s.size());
  std::memcpy(slab_->data(), s.data(), s.size() * sizeof(double));
  len_ = s.size();
}

Buffer Buffer::uninit(std::size_t n) {
  if (n == 0) return Buffer{};
  return Buffer(Slab::uninit(n), 0, n);
}

Buffer Buffer::slice(std::size_t off, std::size_t len) const {
  CATRSM_CHECK(off + len <= len_, "Buffer::slice: view out of range");
  if (len == 0) return Buffer{};
  return Buffer(slab_, off_ + off, len);
}

double* Buffer::mutable_data() {
  if (!slab_) return nullptr;
  if (slab_.use_count() != 1) {
    auto copy = Slab::uninit(len_);
    std::memcpy(copy->data(), data(), len_ * sizeof(double));
    slab_ = std::move(copy);
    off_ = 0;
  }
  return slab_->data() + off_;
}

Buffer concat(std::span<const Buffer> parts) {
  std::size_t total = 0;
  for (const Buffer& p : parts) total += p.size();
  if (total == 0) return Buffer{};

  // Single non-empty part: forward the view itself.
  const Buffer* only = nullptr;
  for (const Buffer& p : parts) {
    if (p.empty()) continue;
    if (only != nullptr) {
      only = nullptr;
      break;
    }
    only = &p;
  }
  if (only != nullptr) return *only;

  // Adjacent slices of one slab concatenate to a wider slice of that slab.
  const Buffer* first = nullptr;
  bool contiguous = true;
  std::size_t next_off = 0;
  for (const Buffer& p : parts) {
    if (p.empty()) continue;
    if (first == nullptr) {
      first = &p;
      next_off = p.offset() + p.size();
      continue;
    }
    if (!p.aliases(*first) || p.offset() != next_off) {
      contiguous = false;
      break;
    }
    next_off += p.size();
  }
  if (first != nullptr && contiguous)
    return Buffer(first->slab_, first->off_, total);

  Buffer packed = Buffer::uninit(total);
  double* dst = packed.mutable_data();
  for (const Buffer& p : parts) {
    if (p.empty()) continue;
    std::memcpy(dst, p.data(), p.size() * sizeof(double));
    dst += p.size();
  }
  return packed;
}

}  // namespace catrsm::sim
