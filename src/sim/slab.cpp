#include "sim/slab.hpp"

#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>

#include "la/matrix.hpp"

namespace catrsm::sim {

namespace {

// Retain at most this much recycled storage; releases beyond it free.
constexpr std::size_t kMaxPooledBytes = std::size_t{128} << 20;  // 128 MiB
constexpr std::size_t kMinBucket = 64;                           // doubles
constexpr int kBuckets = 26;  // kMinBucket << 25 = 2^31 doubles = 16 GiB

// Per-thread front cache (see sim/slab.hpp): the classes up to
// kMinBucket << 7 = 8,192 doubles, at most 16 slabs per class and 1 MiB
// per thread. Caching larger classes too stranded solve_large_p4's
// 512 KiB blocks on threads that free them but never acquire them.
constexpr int kThreadBuckets = 8;
constexpr int kThreadSlabsPerBucket = 16;
constexpr std::size_t kMaxThreadBytes = std::size_t{1} << 20;  // 1 MiB

std::size_t bucket_capacity(std::size_t n) {
  std::size_t cap = kMinBucket;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Freelist index for this capacity, or -1 when it exceeds the largest
/// bucket — oversized slabs bypass the pool entirely (plain alloc/free).
int bucket_index(std::size_t cap) {
  int i = 0;
  for (std::size_t c = kMinBucket; c < cap; c <<= 1) ++i;
  return i < kBuckets ? i : -1;
}

// Freelists are LIFO: a release followed by an acquisition of the same
// size class gets the just-released (cache-warm) storage back.
struct Pool {
  std::mutex mu;
  std::vector<double*> free_lists[kBuckets];
  std::size_t retained_bytes = 0;
};

// Leaked on purpose: Buffer/Slab objects in static storage (or released
// by detached worker threads during shutdown) may return slabs after any
// static destructor would have run.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

double* allocate_aligned(std::size_t cap) {
  return static_cast<double*>(
      ::operator new[](cap * sizeof(double), std::align_val_t{64}));
}

void free_aligned(double* p) {
  ::operator delete[](p, std::align_val_t{64});
}

/// Return a slab to the shared pool (or free it past the pool's bound);
/// po.mu held.
void release_shared_locked(Pool& po, double* p, std::size_t cap, int bucket) {
  const std::size_t bytes = cap * sizeof(double);
  if (po.retained_bytes + bytes <= kMaxPooledBytes) {
    po.free_lists[bucket].push_back(p);
    po.retained_bytes += bytes;
    return;
  }
  free_aligned(p);
}

/// One thread's LIFO freelists for the small classes. Its destructor runs
/// at thread exit and hands every cached slab to the shared pool.
struct ThreadCache {
  double* slabs[kThreadBuckets][kThreadSlabsPerBucket] = {};
  int count[kThreadBuckets] = {};
  std::size_t bytes = 0;

  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache();
};

// The calling thread's cache, null until its first small release and
// again once the cache is destroyed. Both are trivially destructible, so
// they stay readable during thread exit: a Buffer that a later
// thread-exit or static destructor releases finds tls_cache_gone set and
// goes to the shared pool, never into destroyed storage. Only
// non-blocking calls touch the cache, so a rank's fiber never holds it
// across a park.
thread_local ThreadCache* tls_cache = nullptr;
thread_local bool tls_cache_gone = false;

ThreadCache::~ThreadCache() {
  tls_cache = nullptr;
  tls_cache_gone = true;
  Pool& po = pool();
  std::lock_guard<std::mutex> lock(po.mu);
  for (int b = 0; b < kThreadBuckets; ++b)
    for (int i = 0; i < count[b]; ++i)
      release_shared_locked(po, slabs[b][i], kMinBucket << b, b);
}

/// The calling thread's cache, created on first use; null once destroyed.
ThreadCache* thread_cache() {
  if (tls_cache == nullptr && !tls_cache_gone) {
    thread_local ThreadCache cache;
    tls_cache = &cache;
  }
  return tls_cache;
}

double* acquire(std::size_t cap) {
  const int bucket = bucket_index(cap);
  if (bucket < 0) return allocate_aligned(cap);
  if (ThreadCache* tc = tls_cache;
      tc != nullptr && bucket < kThreadBuckets && tc->count[bucket] > 0) {
    tc->bytes -= cap * sizeof(double);
    return tc->slabs[bucket][--tc->count[bucket]];
  }
  Pool& po = pool();
  {
    std::lock_guard<std::mutex> lock(po.mu);
    auto& list = po.free_lists[bucket];
    if (!list.empty()) {
      double* p = list.back();
      list.pop_back();
      po.retained_bytes -= cap * sizeof(double);
      return p;
    }
  }
  return allocate_aligned(cap);
}

void release(double* p, std::size_t cap) {
  const int bucket = bucket_index(cap);
  if (bucket < 0) {
    free_aligned(p);
    return;
  }
  const std::size_t bytes = cap * sizeof(double);
  if (bucket < kThreadBuckets) {
    ThreadCache* tc = thread_cache();
    if (tc != nullptr && tc->count[bucket] < kThreadSlabsPerBucket &&
        tc->bytes + bytes <= kMaxThreadBytes) {
      tc->slabs[bucket][tc->count[bucket]++] = p;
      tc->bytes += bytes;
      return;
    }
  }
  Pool& po = pool();
  std::lock_guard<std::mutex> lock(po.mu);
  release_shared_locked(po, p, cap, bucket);
}

}  // namespace

std::shared_ptr<Slab> Slab::uninit(std::size_t n) {
  auto slab = std::shared_ptr<Slab>(new Slab);
  if (n == 0) return slab;
  const std::size_t cap = bucket_capacity(n);
  slab->data_ = acquire(cap);
  slab->size_ = n;
  slab->capacity_ = cap;
  if (la::uninit_poison()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t i = 0; i < cap; ++i) slab->data_[i] = nan;
  }
  return slab;
}

std::shared_ptr<Slab> Slab::adopt(std::vector<double> v) {
  auto slab = std::shared_ptr<Slab>(new Slab);
  slab->vec_ = std::move(v);
  slab->data_ = slab->vec_.data();
  slab->size_ = slab->vec_.size();
  return slab;
}

Slab::~Slab() {
  if (capacity_ != 0) release(data_, capacity_);
}

}  // namespace catrsm::sim
