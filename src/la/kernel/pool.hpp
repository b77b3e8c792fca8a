#pragma once
// Persistent worker pool for the macro-kernel loops, plus the
// cache-aligned packing arenas that replace per-call panel allocation.
//
// The pool is lazily started on the first multi-threaded dispatch and
// sized from CATRSM_KERNEL_THREADS (default: hardware_concurrency; 1
// reproduces the single-threaded behavior exactly). Its one dispatch
// shape is run_team: run the SAME body on every participant as
// (tid, nt) — the body owns its partitioning. The GEMM driver uses it
// for ONE fork-join per large product, whose participants each own a
// band of C rows and never wait on one another, instead of a fork-join
// per blocking-loop iteration (a condvar wake costs hundreds of
// microseconds on some OS kernels, which is why a per-loop fork-join
// never scaled).
//
// Workers SPIN briefly (120 us) waiting for the next job before parking
// on a condvar, so back-to-back kernel calls — a blocked TRSM runs one
// GEMM panel every few hundred microseconds — never pay the wake
// latency. The master likewise spin-waits for the join (it has its own
// chunk to run, so the wait is short when the split is balanced) and
// degrades to yielding when oversubscribed.
//
// Determinism contract: a team body's work items are self-contained and
// write disjoint output regions, so results are BIT-IDENTICAL for any
// pool size — the split only decides which thread executes an item,
// never what the item computes.
//
// Composition with the simulator: when the caller is a simulated rank
// (exec::in_sim_rank(), set by sim::RankScheduler), dispatches always
// run inline — p ranks already occupy the cores, and fanning out per
// rank would oversubscribe the machine. Only direct callers (Plan on
// p = 1, tests, benches) use the workers.

#include <cstddef>
#include <cstdint>

namespace catrsm::la::kernel {

class ThreadPool {
 public:
  /// The process-wide pool (workers start on first multi-threaded use).
  static ThreadPool& instance();

  /// Configured worker count: testing override if set, else
  /// CATRSM_KERNEL_THREADS, else hardware_concurrency (>= 1).
  int size() const;

  /// Fan-out a dispatch issued from this thread would use right now:
  /// 1 inside a simulated rank or on a pool worker, else size().
  int active_threads() const;

  /// Run body(tid, nt, ctx) on nt participants (tid 0 = the caller,
  /// tids 1..nt-1 on workers) and join. nt is clamped to
  /// active_threads(); with an effective team of 1 the body runs inline
  /// as (0, 1).
  void run_team(int nt, void (*body)(int tid, int nt, void* ctx), void* ctx);

  /// Number of multi-threaded fan-outs since process start. Test hook:
  /// a rank-context kernel call must leave this unchanged.
  static std::uint64_t dispatches();

  /// Test hook: force the pool size (0 restores the environment-derived
  /// size). Takes effect on the next dispatch; workers are spawned on
  /// demand, so raising the count mid-process is safe.
  static void set_threads_for_testing(int n);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  ~ThreadPool();
  struct Impl;
  Impl* impl_;
};

/// Cache-aligned, growable scratch buffer that never value-initializes
/// and is reused across calls (the packed-panel arena). One per thread
/// per panel via pack_arena_a / pack_arena_b; simulated ranks are fibers
/// that never yield inside a kernel call, so thread-locals are safe.
class PackArena {
 public:
  PackArena() = default;
  ~PackArena();
  PackArena(const PackArena&) = delete;
  PackArena& operator=(const PackArena&) = delete;

  /// A buffer of at least `count` doubles, 64-byte aligned, contents
  /// unspecified. Grows geometrically and never shrinks.
  double* ensure(std::size_t count);

 private:
  double* data_ = nullptr;
  std::size_t capacity_ = 0;  // elements
};

/// Thread-local arenas for the packed A and B panels.
PackArena& pack_arena_a();
PackArena& pack_arena_b();

}  // namespace catrsm::la::kernel
