#pragma once
// Persistent rank scheduler backing Machine::run / Machine::run_async.
//
// Ranks run as cooperative fibers multiplexed over a small pool of
// persistent worker threads (min(p, hardware cores) by default; override
// with CATRSM_SIM_WORKERS). A switch is a ~20-instruction register
// save/restore that stays in user space; it skips the signal-mask save, a
// per-switch syscall once measured at >90% of run CPU at simulator
// message sizes. A parked rank yields its fiber back to its worker, which
// runs the next runnable rank; a worker sleeps on its condition variable
// only when every fiber it owns is parked. Workers are created once; fiber
// stacks live in a freelist and are reused. The switch is hand-written
// for Linux x86-64, and the build stops on any other host. ASan and TSan
// builds run the same fibers and follow each switch through their fiber
// APIs.
//
// Blocking: the transport waits only through current_rank() / park() /
// wake(token). Each submission also counts its unfinished tasks and its
// parked ones (a task that sleeps in park() with no wake pending; wake()
// uncounts it before it can run again). The park or the job return that
// makes the two counts equal calls the submission's on_stall: nothing in
// it is running, so only a thread outside it could ever wake it again. A
// task whose job has not started, or that was woken and waits for a
// worker, is not parked, so a starved submission is never reported.
//
// Concurrency: submit() dispatches one SUBMISSION (p rank tasks) and
// returns immediately; several submissions can be in flight at once.
// Fibers of different submissions interleave on the same workers: a
// worker whose fibers of run A are all parked runs runnable fibers of run
// B instead of sleeping — that overlap is where multi-stream throughput
// comes from. run() is submit() + wait().
//
// Worker/fiber assignment is static: rank i always lives on worker
// i % W, so each rank's thread identity is stable across runs — tests
// assert reuse by capturing std::this_thread::get_id() inside consecutive
// runs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace catrsm::sim {

class RankScheduler {
 public:
  /// One in-flight dispatch of p rank tasks. Opaque: create via submit(),
  /// query via RankScheduler::wait / done.
  class Submission {
   private:
    friend class RankScheduler;
    std::function<void(int)> job;
    /// Invoked on a worker thread when the last rank task finishes,
    /// BEFORE waiters are released — when wait() returns, the callback
    /// has completed.
    std::function<void()> on_complete;
    /// Invoked inside a task of this submission when it stalls; see
    /// submit().
    std::function<void()> on_stall;
    std::atomic<int> remaining{0};
    /// Stall census: unfinished tasks in the high 32 bits, parked tasks
    /// in the low 32 bits, so one atomic update changes one count and
    /// reads the other.
    std::atomic<std::uint64_t> census{0};
    mutable std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  using SubmissionPtr = std::shared_ptr<Submission>;

  /// Start the worker pool for p ranks (workers park until the first run).
  explicit RankScheduler(int p);
  /// Wakes and joins every worker. All submissions must have completed.
  ~RankScheduler();

  RankScheduler(const RankScheduler&) = delete;
  RankScheduler& operator=(const RankScheduler&) = delete;

  int size() const { return p_; }
  /// Number of OS worker threads backing the p ranks.
  int workers() const { return static_cast<int>(workers_.size()); }
  /// True: ranks always run as fibers. Kept because bench_e2e's result
  /// file records it.
  bool fibers() const { return true; }

  /// Dispatch job(i) for every i in [0, p) as one submission and return
  /// immediately; rank i runs on worker i % W, interleaved with any other
  /// in-flight submissions. The job must not throw (Machine wraps the
  /// rank body with its own error capture; a leak here aborts the run).
  /// Must not be called from inside a rank task. `on_complete` (optional)
  /// fires on a worker thread when the last rank finishes. `on_stall`
  /// (optional) runs inside the task whose park() or return leaves every
  /// unfinished task parked, before that task completes; it must not
  /// throw. A handler that wakes tasks may be called again (a woken task
  /// that returns while another is still parked reports once more), so
  /// it must be idempotent.
  SubmissionPtr submit(std::function<void(int)> job,
                       std::function<void()> on_complete = nullptr,
                       std::function<void()> on_stall = nullptr);
  /// Block until every rank task of `sub` finished.
  void wait(const SubmissionPtr& sub);
  /// True once every rank task of `sub` finished.
  static bool done(const SubmissionPtr& sub);

  /// submit() + wait(): execute job(i) for every i in [0, p) and block
  /// until all ranks finish.
  void run(const std::function<void(int)>& job);

  /// Number of completed submissions since construction.
  std::uint64_t runs() const {
    return completed_.load(std::memory_order_acquire);
  }

  // --- Blocking primitive (the transport's only way to wait) --------------
  /// Token naming the calling rank task, to hand to wake(); nullptr when
  /// the caller is not running a rank task.
  static void* current_rank();
  /// Block the calling rank task until wake(current_rank()); returns at
  /// once when a wake arrived since the task started or since its last
  /// park() returned. A wake meant for an earlier task on the same fiber
  /// costs at most one spurious return, so callers re-check their
  /// condition.
  static void park();
  /// Make the rank named by `token` runnable again (safe from any thread).
  static void wake(void* token);

 private:
  struct Fiber;
  struct Worker;

  void worker_loop(Worker& w);
  void complete_task(const SubmissionPtr& sub);
  /// Count the calling task as parked; true when that stalls `sub` and
  /// the caller must run its on_stall.
  static bool count_parked(Submission& sub);
  /// Count a returned job, running on_stall when the return leaves every
  /// unfinished task of `sub` parked. Called inside the task.
  static void count_returned(Submission& sub);
  /// Fiber body: invoked by the assembly entry thunk with the Fiber*
  /// seeded into the initial stack frame; runs the rank job and switches
  /// back to the owning worker. Never returns.
  static void fiber_main(void* fiber);

  int p_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::mutex submit_mu_;  // serializes submissions (FIFO order per worker)
  std::mutex free_mu_;    // guards the fiber freelist
  std::vector<std::unique_ptr<Fiber>> all_fibers_;  // owns every fiber ever made
  std::vector<Fiber*> free_fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace catrsm::sim
