#include "sim/scheduler.hpp"

#if !defined(__linux__) || !defined(__x86_64__)
#error "catrsm's rank scheduler needs Linux x86-64: catrsm_ctx_swap below is its only stack switch"
#endif

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "support/check.hpp"
#include "support/env.hpp"
#include "support/exec_context.hpp"

// AddressSanitizer and ThreadSanitizer follow the stack switch through
// their fiber APIs; builds without them compile none of these hooks.
#if defined(__SANITIZE_ADDRESS__)
#define CATRSM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CATRSM_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CATRSM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CATRSM_TSAN 1
#endif
#endif
#ifdef CATRSM_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef CATRSM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

extern "C" {
/// Save the current execution context (callee-saved registers + x87/SSE
/// control words) on the current stack, store the resulting stack pointer
/// to *save_sp, and resume the context whose stack pointer is resume_sp.
void catrsm_ctx_swap(void** save_sp, void* resume_sp);
}

// SysV x86-64: rbx, rbp, r12-r15 are callee-saved, as are the x87 control
// word and mxcsr (a fiber that changes rounding modes must not leak that
// into its sibling). Everything else is caller-saved and therefore dead
// across the catrsm_ctx_swap call boundary. The signal mask is not saved:
// rank fibers never manipulate per-fiber signal masks.
//
// Frame layout grown by the save sequence (low to high):
//   [fcw:2 pad:2 mxcsr:4] [r15] [r14] [r13] [r12] [rbx] [rbp] [ret]
//
// catrsm_ctx_entry is the first "return target" of a freshly armed fiber
// stack: submit() seeds r12 with the Fiber* and r13 with the entry
// function, so the thunk is nothing but an indirect call with the seeded
// argument. The stack is 16-byte aligned at the thunk (arranged by
// submit()), making it 8-mod-16 at the callee entry as the ABI requires.
asm(R"(
  .text
  .align 16
  .globl catrsm_ctx_swap
  .type catrsm_ctx_swap, @function
catrsm_ctx_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq  $8, %rsp
  stmxcsr 4(%rsp)
  fnstcw  (%rsp)
  movq  %rsp, (%rdi)
  movq  %rsi, %rsp
  fldcw   (%rsp)
  ldmxcsr 4(%rsp)
  addq  $8, %rsp
  popq  %r15
  popq  %r14
  popq  %r13
  popq  %r12
  popq  %rbx
  popq  %rbp
  retq
  .size catrsm_ctx_swap, .-catrsm_ctx_swap

  .align 16
  .globl catrsm_ctx_entry
  .type catrsm_ctx_entry, @function
catrsm_ctx_entry:
  movq  %r12, %rdi
  callq *%r13
  ud2
  .size catrsm_ctx_entry, .-catrsm_ctx_entry
)");

extern "C" void catrsm_ctx_entry();

namespace catrsm::sim {

namespace {
// The running fiber, the token wake() takes; opaque because Fiber is
// private to RankScheduler.
thread_local void* tls_rank = nullptr;

constexpr std::uint64_t kOneUnfinished = std::uint64_t{1} << 32;
constexpr std::uint64_t kOneParked = 1;

/// True when a census word counts at least one parked task and as many
/// parked tasks as unfinished ones. A wake can uncount a task before its
/// park() counted it; the low field then borrows from the high one and
/// reads near 2^32, which never equals an unfinished count.
bool stalled(std::uint64_t census) {
  const std::uint64_t parked = census & 0xffffffffu;
  return parked != 0 && parked == census >> 32;
}
}  // namespace

void* RankScheduler::current_rank() { return tls_rank; }

bool RankScheduler::count_parked(Submission& sub) {
  // acq_rel on every census update: whoever sees the stall also sees
  // what each task wrote before it parked or returned.
  return stalled(sub.census.fetch_add(kOneParked, std::memory_order_acq_rel) +
                 kOneParked) &&
         sub.on_stall;
}

void RankScheduler::count_returned(Submission& sub) {
  if (stalled(sub.census.fetch_sub(kOneUnfinished,
                                   std::memory_order_acq_rel) -
              kOneUnfinished) &&
      sub.on_stall)
    sub.on_stall();
}

namespace {

constexpr std::size_t kFiberStackBytes = 1024 * 1024;

/// mmap-backed fiber stack with a PROT_NONE guard page below it, so a
/// rank that overruns its stack faults cleanly instead of silently
/// corrupting a neighboring heap block (the diagnostic OS threads get
/// from their kernel guard pages).
class GuardedStack {
 public:
  explicit GuardedStack(std::size_t usable)
      : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        total_((usable + guard_ - 1) / guard_ * guard_ + guard_) {
    void* raw = mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    CATRSM_CHECK(raw != MAP_FAILED, "scheduler: fiber stack mmap failed");
    CATRSM_CHECK(mprotect(raw, guard_, PROT_NONE) == 0,
                 "scheduler: fiber guard page mprotect failed");
    base_ = static_cast<char*>(raw);
  }
  ~GuardedStack() { munmap(base_, total_); }
  GuardedStack(const GuardedStack&) = delete;
  GuardedStack& operator=(const GuardedStack&) = delete;

  /// The usable region: its lowest byte, its size, and one past its
  /// highest byte (stacks grow down).
  char* bottom() const { return base_ + guard_; }
  std::size_t size() const { return total_ - guard_; }
  char* top() const { return base_ + total_; }

 private:
  std::size_t guard_;
  std::size_t total_;
  char* base_ = nullptr;
};

/// One stack a worker thread runs on: its own, or a fiber's. Besides the
/// saved stack pointer it holds what a sanitizer needs to follow a switch
/// onto or off the stack; other builds have no such fields.
struct StackContext {
  /// Saved stack pointer while switched out.
  void* sp = nullptr;
#ifdef CATRSM_ASAN
  /// ASan's fake frames while switched out, and the stack's bounds.
  void* fake_stack = nullptr;
  const void* bottom = nullptr;
  std::size_t size = 0;
#endif
#ifdef CATRSM_TSAN
  void* tsan_fiber = nullptr;
#endif
};

/// Switch the calling thread from stack `from` onto stack `to`; returns
/// when a later switch resumes `from`. `from_finished` marks the last
/// switch off a finished fiber's stack, which never resumes: ASan drops
/// its fake frames.
void switch_stacks(StackContext& from, StackContext& to,
                   [[maybe_unused]] bool from_finished = false) {
#ifdef CATRSM_ASAN
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &from.fake_stack,
                                 to.bottom, to.size);
#endif
#ifdef CATRSM_TSAN
  // Flag 0 makes the switch a synchronization: whatever ran before it
  // happens before whatever runs after it, on either stack.
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  catrsm_ctx_swap(&from.sp, to.sp);
#ifdef CATRSM_ASAN
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

/// Fiber::state values.
enum FiberState : int {
  kRunning,  // switched in, or finished
  kReady,    // queued to run, or running with a wake pending
  kParked,   // switched out in park(), counted as parked
};

}  // namespace

struct RankScheduler::Fiber {
  Fiber() {
#ifdef CATRSM_ASAN
    ctx.bottom = stack.bottom();
    ctx.size = stack.size();
#endif
  }

  GuardedStack stack{kFiberStackBytes};
  /// The stack pointer is saved here while the fiber is parked; submit()
  /// re-arms it at a fresh frame for every life.
  StackContext ctx;
  /// Home worker of the current life; written by submit() before the
  /// life's first ready-queue entry.
  std::atomic<Worker*> worker{nullptr};
  int index = 0;
  SubmissionPtr sub;
  /// A wake turns kRunning into kReady, which the next park() consumes
  /// without switching, and kParked into kReady plus one ready-queue
  /// entry; the worker turns kReady back into kRunning when it pops that
  /// entry.
  std::atomic<int> state{kRunning};
  bool finished = true;
};

struct RankScheduler::Worker {
  int id = 0;
  std::mutex mu;
  std::condition_variable cv;
  /// The worker thread's own stack, switched out while a fiber runs on
  /// this worker. Touched only by this worker's thread and by the single
  /// fiber currently executing on it, so no synchronization is needed.
  StackContext ctx;
  /// How many in-flight fibers are assigned here (rank i of every live
  /// submission with i % W == id). Raised by submit(), lowered only by
  /// this worker's thread; both under mu. Read only by the shutdown test.
  int resident = 0;
  /// Fibers to switch in: one entry per submit() arm or per wake of a
  /// parked fiber, so each queued fiber appears exactly once and a wake
  /// stays O(1) however many fibers (from however many concurrent
  /// submissions) reside here.
  std::deque<Fiber*> ready_q;
  std::thread thread;
};

RankScheduler::RankScheduler(int p) : p_(p) {
  CATRSM_CHECK(p >= 1, "scheduler needs at least one rank");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  // Strict parsing: a malformed or non-positive override warns and falls
  // back to the core count instead of silently running with a
  // nonsensical pool. More workers than ranks is just idle threads.
  const int w = std::min(p, env::int_or("CATRSM_SIM_WORKERS", hw > 0 ? hw : 1,
                                        1, std::numeric_limits<int>::max()));
  // Seed the freelist with one fiber per rank; concurrent submissions
  // grow it on demand and every stack is reused afterwards.
  all_fibers_.reserve(static_cast<std::size_t>(p));
  free_fibers_.reserve(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    all_fibers_.push_back(std::make_unique<Fiber>());
    free_fibers_.push_back(all_fibers_.back().get());
  }
  workers_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->id = i;
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
}

RankScheduler::~RankScheduler() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    // The empty critical section pairs with the worker's locked
    // scan-then-wait, so the notify cannot slip between scan and sleep.
    { std::lock_guard<std::mutex> lock(w->mu); }
    w->cv.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
}

RankScheduler::SubmissionPtr RankScheduler::submit(
    std::function<void(int)> job, std::function<void()> on_complete,
    std::function<void()> on_stall) {
  CATRSM_CHECK(tls_rank == nullptr,
               "scheduler: submit() must not be called from a simulated rank");
  auto sub = std::make_shared<Submission>();
  sub->job = std::move(job);
  sub->on_complete = std::move(on_complete);
  sub->on_stall = std::move(on_stall);
  sub->remaining.store(p_, std::memory_order_relaxed);
  sub->census.store(static_cast<std::uint64_t>(p_) * kOneUnfinished,
                    std::memory_order_relaxed);

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const int w = workers();
  std::vector<Fiber*> picked(static_cast<std::size_t>(p_));
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    for (int i = 0; i < p_; ++i) {
      if (free_fibers_.empty()) {
        all_fibers_.push_back(std::make_unique<Fiber>());
        free_fibers_.push_back(all_fibers_.back().get());
      }
      picked[static_cast<std::size_t>(i)] = free_fibers_.back();
      free_fibers_.pop_back();
    }
  }
  for (int i = 0; i < p_; ++i) {
    Fiber* f = picked[static_cast<std::size_t>(i)];
    f->index = i;
    f->sub = sub;
    f->finished = false;
    // Arm a fresh frame at the stack top shaped exactly like one the save
    // sequence of catrsm_ctx_swap would have produced, with the entry
    // thunk as the return target and the Fiber* / entry function seeded
    // into the r12 / r13 slots. The first swap into the fiber then simply
    // "returns" into catrsm_ctx_entry.
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
    const std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(f->stack.top()) &
        ~static_cast<std::uintptr_t>(15);
    auto* frame = reinterpret_cast<std::uint64_t*>(top);
    *--frame = reinterpret_cast<std::uint64_t>(&catrsm_ctx_entry);  // ret
    *--frame = 0;                                                   // rbp
    *--frame = 0;                                                   // rbx
    *--frame = reinterpret_cast<std::uint64_t>(f);                  // r12
    *--frame = reinterpret_cast<std::uint64_t>(&fiber_main);        // r13
    *--frame = 0;                                                   // r14
    *--frame = 0;                                                   // r15
    *--frame = static_cast<std::uint64_t>(mxcsr) << 32 | fcw;       // fpu
    f->ctx.sp = frame;
#ifdef CATRSM_TSAN
    // One TSan fiber per life, destroyed by worker_loop when the life
    // ends: a life ends inside fiber_main, and TSan's shadow call stack
    // would keep that frame, overflowing after ~64K lives of one fiber.
    f->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
    // Published to the home worker by the ready-queue push below.
    f->worker.store(workers_[static_cast<std::size_t>(i % w)].get(),
                    std::memory_order_relaxed);
    f->state.store(kReady, std::memory_order_relaxed);
  }
  for (auto& worker : workers_) {
    bool added = false;
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      for (int i = worker->id; i < p_; i += w) {
        ++worker->resident;
        worker->ready_q.push_back(picked[static_cast<std::size_t>(i)]);
        added = true;
      }
    }
    if (added) worker->cv.notify_all();
  }
  return sub;
}

void RankScheduler::wait(const SubmissionPtr& sub) {
  CATRSM_CHECK(tls_rank == nullptr,
               "scheduler: wait() must not be called from a simulated rank");
  std::unique_lock<std::mutex> lock(sub->mu);
  sub->cv.wait(lock, [&] { return sub->done; });
}

bool RankScheduler::done(const SubmissionPtr& sub) {
  std::lock_guard<std::mutex> lock(sub->mu);
  return sub->done;
}

void RankScheduler::run(const std::function<void(int)>& job) {
  wait(submit(job));
}

void RankScheduler::complete_task(const SubmissionPtr& sub) {
  if (sub->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last rank of the submission: completion callback runs before waiters
  // are released so its effects are visible when wait() returns.
  if (sub->on_complete) sub->on_complete();
  // Drop the job and callbacks now: they may close over state that owns
  // this submission (e.g. the machine's per-run context), and keeping
  // them alive would make that ownership a reference cycle. No task is
  // left to run on_stall: each calls it before it completes.
  sub->job = nullptr;
  sub->on_complete = nullptr;
  sub->on_stall = nullptr;
  completed_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->done = true;
  }
  sub->cv.notify_all();
}

void RankScheduler::fiber_main(void* fiber) {
  auto* f = static_cast<Fiber*>(fiber);
  StackContext& home = f->worker.load(std::memory_order_relaxed)->ctx;
#ifdef CATRSM_ASAN
  // First entry of this life: no fake frames to restore, and ASan reports
  // the bounds of the stack it came from, the home worker's thread stack.
  // A fiber never leaves its home worker within a life, so the bounds hold
  // for every switch back.
  __sanitizer_finish_switch_fiber(nullptr, &home.bottom, &home.size);
#endif
  try {
    (f->sub->job)(f->index);
  } catch (...) {
    // The job contract forbids leaks (Machine catches rank errors);
    // swallow so a violation cannot unwind across the context switch.
  }
  count_returned(*f->sub);
  f->finished = true;
  // Final switch back to the home worker. The saved frame is dead: the
  // next submit() re-arms the stack from the top.
  switch_stacks(f->ctx, home, /*from_finished=*/true);
  __builtin_unreachable();
}

void RankScheduler::worker_loop(Worker& w) {
#ifdef CATRSM_TSAN
  w.ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  while (true) {
    Fiber* f = nullptr;
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait(lock, [&] {
        if (!w.ready_q.empty()) return true;
        // Shutdown only matters once nothing resides here; a resident
        // parked fiber's wake will arrive as a queue entry.
        return shutdown_.load(std::memory_order_acquire) &&
               w.resident == 0;
      });
      if (w.ready_q.empty()) return;  // shutdown, nothing resident
      f = w.ready_q.front();
      w.ready_q.pop_front();
    }
    // A wake arriving from here on finds kRunning and stays pending for
    // the fiber's next park().
    f->state.store(kRunning, std::memory_order_relaxed);
    tls_rank = f;
    // The residency window doubles as the sim-rank mark: while the worker
    // thread is inside the fiber, kernel-pool fan-out is off.
    const bool prev = exec::set_in_sim_rank(true);
    switch_stacks(w.ctx, f->ctx);
    exec::set_in_sim_rank(prev);
    tls_rank = nullptr;
    if (f->finished) {
      {
        std::lock_guard<std::mutex> lock(w.mu);
        --w.resident;
      }
#ifdef CATRSM_TSAN
      __tsan_destroy_fiber(f->ctx.tsan_fiber);
#endif
      // Recycle before completing: the stack is quiescent (we returned
      // from the swap) and the submission handle has been moved out, so
      // a concurrent submit() may re-arm it immediately.
      SubmissionPtr sub = std::move(f->sub);
      {
        std::lock_guard<std::mutex> lock(free_mu_);
        free_fibers_.push_back(f);
      }
      complete_task(sub);
    }
  }
}

void RankScheduler::park() {
  auto* f = static_cast<Fiber*>(tls_rank);
  CATRSM_CHECK(f != nullptr, "park: not on a simulated rank");
  int state = kRunning;
  if (!f->state.compare_exchange_strong(state, kParked,
                                        std::memory_order_acq_rel)) {
    // A wake that raced ahead of the park is consumed without switching.
    f->state.store(kRunning, std::memory_order_relaxed);
    return;
  }
  // A wake may already have uncounted this park (see stalled()); the
  // home worker cannot pop its entry before the switch below.
  if (count_parked(*f->sub)) f->sub->on_stall();
  switch_stacks(f->ctx, f->worker.load(std::memory_order_relaxed)->ctx);
}

void RankScheduler::wake(void* token) {
  auto* f = static_cast<Fiber*>(token);
  int state = f->state.load(std::memory_order_acquire);
  do {
    if (state == kReady) return;  // already pending or queued
  } while (!f->state.compare_exchange_weak(state, kReady,
                                           std::memory_order_acq_rel));
  if (state == kRunning) return;  // its next park() returns at once
  // Uncount before queueing, so the fiber never runs counted as parked.
  f->sub->census.fetch_sub(kOneParked, std::memory_order_acq_rel);
  Worker* w = f->worker.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(w->mu);
    w->ready_q.push_back(f);
  }
  w->cv.notify_one();
}

}  // namespace catrsm::sim
