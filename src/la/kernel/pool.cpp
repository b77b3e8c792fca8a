#include "la/kernel/pool.hpp"

#include <immintrin.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "support/env.hpp"
#include "support/exec_context.hpp"

namespace catrsm::la::kernel {

namespace {

std::atomic<int> g_test_threads{0};
std::atomic<std::uint64_t> g_dispatches{0};
thread_local bool tls_pool_worker = false;

int env_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  // Strict parsing: zero, negative, or non-numeric overrides warn and
  // fall back to the core count instead of being silently dropped.
  return env::int_or("CATRSM_KERNEL_THREADS", fallback, 1,
                     std::numeric_limits<int>::max());
}

/// How long a waiter spins before giving the core away. Workers park on
/// a condvar past this; the master's join degrades to sched_yield. 120 us
/// comfortably covers the gap between consecutive GEMM panels of a
/// blocked triangular sweep while costing at most one idle core-slice
/// after the last kernel call of a burst.
constexpr std::chrono::microseconds kSpin{120};

using SpinClock = std::chrono::steady_clock;

/// Spin on `done` with pause hints for ~kSpin, then yield between
/// checks. Returns when done() is true.
template <class F>
void spin_then_yield(F&& done) {
  const auto deadline = SpinClock::now() + kSpin;
  int slice = 0;
  while (!done()) {
    _mm_pause();
    if (++slice >= 256) {
      slice = 0;
      if (SpinClock::now() > deadline) {
        while (!done()) std::this_thread::yield();
        return;
      }
    }
  }
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex dispatch_mu;  // serializes concurrent masters

  // Job publication: the master writes the job fields, then publishes a
  // packed (seq, team size) word with release semantics. A worker
  // decides team membership from ONE atomic load of that word, so it can
  // never mix one job's membership with another job's fields: the plain
  // fields below are written before the word bump and stay untouched
  // until the next publish, which the master only issues after join()
  // saw every member of the previous team finish.
  //
  // Word layout: bits [0,40) sequence, bits [40,56) team size. 2^40
  // dispatches is unreachable in practice; the sequence must not wrap
  // while a parked worker still compares against an old value.
  static constexpr std::uint64_t kSeqMask = (1ULL << 40) - 1;
  static constexpr int kNtShift = 40;

  std::atomic<std::uint64_t> job_word{0};
  std::atomic<int> remaining{0};  // team members still inside the job
  void (*team_body)(int, int, void*) = nullptr;
  void* ctx = nullptr;
  std::uint64_t seq = 0;

  // Parking lot: a worker whose spin window expires sleeps here; the
  // master only takes the lock when someone is actually parked.
  std::mutex park_mu;
  std::condition_variable park_cv;
  std::atomic<int> parked{0};
  std::atomic<bool> shutdown{false};

  std::vector<std::thread> workers;
  std::mutex spawn_mu;

  void ensure_workers(int count) {
    std::lock_guard<std::mutex> lock(spawn_mu);
    while (static_cast<int>(workers.size()) < count) {
      const int id = static_cast<int>(workers.size());
      workers.emplace_back([this, id] { worker_loop(id); });
    }
  }

  void worker_loop(int id) {
    tls_pool_worker = true;
    std::uint64_t seen_seq = 0;
    while (true) {
      // Spin-then-park for the next job word.
      const std::uint64_t word = spin_then_park(seen_seq);
      if (shutdown.load(std::memory_order_acquire)) return;
      seen_seq = word & kSeqMask;
      const int nt = static_cast<int>((word >> kNtShift) & 0xffff);
      if (id + 1 >= nt) continue;  // not in this job's team
      team_body(id + 1, nt, ctx);
      remaining.fetch_sub(1, std::memory_order_release);
    }
  }

  /// Wait for the job word's sequence to move past seen_seq (or for
  /// shutdown); returns the freshly observed word.
  std::uint64_t spin_then_park(std::uint64_t seen_seq) {
    const auto deadline = SpinClock::now() + kSpin;
    int slice = 0;
    while (true) {
      const std::uint64_t w = job_word.load(std::memory_order_acquire);
      if ((w & kSeqMask) != seen_seq ||
          shutdown.load(std::memory_order_acquire))
        return w;
      _mm_pause();
      if (++slice >= 256) {
        slice = 0;
        if (SpinClock::now() > deadline) break;
      }
    }
    std::unique_lock<std::mutex> lock(park_mu);
    parked.fetch_add(1, std::memory_order_seq_cst);
    park_cv.wait(lock, [&] {
      return (job_word.load(std::memory_order_acquire) & kSeqMask) !=
                 seen_seq ||
             shutdown.load(std::memory_order_acquire);
    });
    parked.fetch_sub(1, std::memory_order_relaxed);
    return job_word.load(std::memory_order_acquire);
  }

  /// Publish a job for workers 1..nt-1 and wake any parked ones.
  void publish(int nt) {
    remaining.store(nt - 1, std::memory_order_relaxed);
    ++seq;
    const std::uint64_t word = (seq & kSeqMask) |
                               (static_cast<std::uint64_t>(nt) << kNtShift);
    job_word.store(word, std::memory_order_release);
    // seq_cst pairing with the parked increment: a worker either sees
    // the new job word before parking, or its increment is visible here
    // and it gets the notify.
    if (parked.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(park_mu);
      park_cv.notify_all();
    }
  }

  void join() {
    spin_then_yield([&] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  impl_->shutdown.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(impl_->park_mu);
    impl_->park_cv.notify_all();
  }
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::size() const {
  const int forced = g_test_threads.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int configured = env_threads();
  return configured;
}

int ThreadPool::active_threads() const {
  if (exec::in_sim_rank() || tls_pool_worker) return 1;
  return size();
}

void ThreadPool::run_team(int nt, void (*body)(int, int, void*), void* ctx) {
  const int cap = active_threads();
  if (nt > cap) nt = cap;
  if (nt <= 1) {
    body(0, 1, ctx);
    return;
  }

  std::lock_guard<std::mutex> dispatch(impl_->dispatch_mu);
  impl_->ensure_workers(nt - 1);
  impl_->team_body = body;
  impl_->ctx = ctx;
  impl_->publish(nt);
  g_dispatches.fetch_add(1, std::memory_order_relaxed);

  body(0, nt, ctx);  // tid 0 on the caller
  impl_->join();
}

std::uint64_t ThreadPool::dispatches() {
  return g_dispatches.load(std::memory_order_relaxed);
}

void ThreadPool::set_threads_for_testing(int n) {
  g_test_threads.store(n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PackArena

PackArena::~PackArena() {
  if (data_ != nullptr)
    ::operator delete(data_, std::align_val_t{64});
}

double* PackArena::ensure(std::size_t count) {
  if (count > capacity_) {
    std::size_t cap = capacity_ > 0 ? capacity_ : 1024;
    while (cap < count) cap *= 2;
    if (data_ != nullptr)
      ::operator delete(data_, std::align_val_t{64});
    data_ = static_cast<double*>(
        ::operator new(cap * sizeof(double), std::align_val_t{64}));
    capacity_ = cap;
  }
  return data_;
}

PackArena& pack_arena_a() {
  static thread_local PackArena arena;
  return arena;
}

PackArena& pack_arena_b() {
  static thread_local PackArena arena;
  return arena;
}

}  // namespace catrsm::la::kernel
