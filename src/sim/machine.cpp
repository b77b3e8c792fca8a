#include "sim/machine.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <unordered_map>
#include <utility>

#include <sstream>

#include "sim/check/coll_matcher.hpp"
#include "sim/check/deadlock.hpp"
#include "sim/check/fault_report.hpp"
#include "sim/check/trace.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "support/env.hpp"

namespace catrsm::sim {

// ---------------------------------------------------------------------------
// Per-run transport state. One RunContext per run_async: everything a run
// mutates lives here, so concurrent streams share only the scheduler's
// worker pool, the handle store, and the (append-only) epoch registry.

struct Message {
  Buffer data;
  double sender_vtime = 0.0;  // sender clock at the instant of send
  // Transport-verification stamps, written only while a fault plan is
  // armed (zero otherwise): FNV-1a hash of the payload before any
  // injected corruption, and the per-(src, dst, tag) delivery ordinal.
  std::uint64_t checksum = 0;
  std::uint32_t seq = 0;
};

/// Rank `dst`'s inbox: every message addressed to it, from any sender, in
/// arrival order. A receive takes the oldest entry with its (src, tag), so
/// matching is FIFO per (src, tag); SPMD program order makes that
/// sufficient and deterministic. A receiver holds only a few unmatched
/// messages at a time, so a linear scan is the whole index. Aligned so
/// senders to neighbouring ranks never contend on one cache line.
struct alignas(64) Inbox {
  struct Entry {
    int src;
    int tag;
    Message msg;
  };
  std::mutex mu;
  std::vector<Entry> queued;  // guarded by mu
  // Rendezvous: the receiving rank's wake token (RankScheduler::
  // current_rank) and the (src, tag) it waits for, set only while it is
  // blocked in take() (only rank `dst` receives here, so one slot
  // suffices). Guarded by mu.
  void* waiter = nullptr;
  int waiter_src = -1;
  int waiter_tag = 0;
  // Deliveries held back by an armed delay fault (guarded by mu): each is
  // queued *behind* the next delivery from the same sender, reordering
  // that sender's FIFO deterministically. A held message cannot wake its
  // receiver, so a run starved by one is a genuine (and correctly
  // declared) deadlock; the dump does not list held messages. Always
  // empty when no plan is armed.
  std::vector<Entry> held;
};

class RunContext {
 public:
  RunContext(Machine* m, std::function<void(Rank&)> fn)
      : machine(m),
        p(m->nprocs()),
        params(m->params()),
        body(std::move(fn)),
        inboxes(static_cast<std::size_t>(p)) {
    waits.resize(static_cast<std::size_t>(p));
    ranks.reserve(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i)
      ranks.push_back(std::unique_ptr<Rank>(new Rank(this, i, p)));
  }

  Machine* machine;
  int p;
  MachineParams params;
  std::function<void(Rank&)> body;
  // One per receiving rank. They die with the run, so a failed run's
  // leftovers can never match in a later one.
  std::vector<Inbox> inboxes;
  std::atomic<bool> aborted{false};
  std::vector<std::unique_ptr<Rank>> ranks;

  // --- Deadlock dump (sim/check/deadlock.hpp) ----------------------------
  // What each rank was doing when the scheduler reported the stall. Rank
  // r alone writes waits[r]: src/tag in take() before it parks, finished
  // after its body returns. The scheduler's acq_rel census updates order
  // those writes before the report reads them.
  std::vector<check::RankWait> waits;
  std::atomic<bool> deadlocked{false};  // set once deadlock_dump is stored

  // Per-run tooling instances (built from the machine settings).
  std::unique_ptr<check::CollectiveMatcher> matcher;
  std::unique_ptr<check::TraceRecorder> tracer;
  std::unique_ptr<FaultInjector> injector;

  std::mutex error_mu;
  std::exception_ptr first_error;
  std::string deadlock_dump;  // guarded by error_mu

  RankScheduler::SubmissionPtr sub;

  // Assemble-once state (RunTicket::wait is idempotent).
  std::mutex assemble_mu;
  bool assembled = false;
  RunStats stats;
  std::exception_ptr outcome;
  int injections_final = 0;

  void deliver(int src, int dst, int tag, Message msg);
  Message take(int dst, int src, int tag);
  /// What the inboxes queue (`held` false) or hold back (`held` true): one
  /// summary per (dst, src, tag), in ascending dst and, within an inbox,
  /// in order of first arrival. Reads each inbox under its lock; the
  /// caller's run is quiescent (stalled, or every rank returned).
  std::vector<check::PendingQueue> pending(bool held);
  void abort_all();
  /// Record a failure (the first one wins) and abort the run.
  void fail(std::exception_ptr error);
  /// The submission's on_stall: every unfinished rank is parked in
  /// take(), so none will run again. Called again when a rank woken by
  /// the abort returns while another is still parked; a run already
  /// aborting is left alone.
  void declare_deadlock();
  [[noreturn]] void fault_deadlock();
  void rank_main(int i);
  RunStats wait_and_assemble();
};

// ---------------------------------------------------------------------------
// Rank

void Rank::account(double msgs, double words, double flops) {
  cost_.msgs += msgs;
  cost_.words += words;
  cost_.flops += flops;
  for (const std::string& label : phase_stack_) {
    Cost& bucket = phase_costs_[label];
    bucket.msgs += msgs;
    bucket.words += words;
    bucket.flops += flops;
  }
}

void Rank::pop_phase() {
  CATRSM_CHECK(!phase_stack_.empty(), "pop_phase: no active phase");
  phase_stack_.pop_back();
}

void Rank::send(int dst, Buffer data, int tag) {
  CATRSM_CHECK(dst >= 0 && dst < nprocs_, "send: bad destination rank");
  CATRSM_CHECK(dst != id_, "send: self-sends are a bug in SPMD code");
  if (FaultInjector* fi = run_->injector.get()) fi->maybe_kill(id_);
  const double w = static_cast<double>(data.size());
  const double sent_at = vtime_;
  account(1.0, w, 0.0);
  vtime_ += params().alpha + params().beta * w;
  if (check::TraceRecorder* t = run_->tracer.get())
    t->on_send(id_, dst, tag, data, vtime_);
  run_->deliver(id_, dst, tag, Message{std::move(data), sent_at});
}

Buffer Rank::recv(int src, int tag) {
  CATRSM_CHECK(src >= 0 && src < nprocs_, "recv: bad source rank");
  CATRSM_CHECK(src != id_, "recv: self-receives are a bug in SPMD code");
  if (FaultInjector* fi = run_->injector.get()) fi->maybe_kill(id_);
  Message msg = run_->take(id_, src, tag);
  if (FaultInjector* fi = run_->injector.get())
    fi->verify_receive(id_, src, tag, msg.data, msg.checksum, msg.seq);
  const double w = static_cast<double>(msg.data.size());
  account(1.0, w, 0.0);
  // The data exists at the receiver no earlier than alpha + beta*w after
  // the sender's clock at send time, and no earlier than the receiver is
  // ready to receive.
  vtime_ = std::max(vtime_, msg.sender_vtime) + params().alpha +
           params().beta * w;
  if (check::TraceRecorder* t = run_->tracer.get())
    t->on_recv(id_, src, tag, msg.data, vtime_);
  return std::move(msg.data);
}

Buffer Rank::sendrecv(int peer, Buffer data, int tag) {
  return shift(peer, peer, std::move(data), tag);
}

Buffer Rank::shift(int dst, int src, Buffer data, int tag) {
  CATRSM_CHECK(dst >= 0 && dst < nprocs_, "shift: bad destination rank");
  CATRSM_CHECK(src >= 0 && src < nprocs_, "shift: bad source rank");
  CATRSM_CHECK(dst != id_ && src != id_, "shift: peers must differ from self");
  if (FaultInjector* fi = run_->injector.get()) fi->maybe_kill(id_);
  const double sent = static_cast<double>(data.size());
  check::TraceRecorder* const tracer = run_->tracer.get();
  Buffer sent_view;
  if (tracer != nullptr) sent_view = data;  // slab share, no copy
  run_->deliver(id_, dst, tag, Message{std::move(data), vtime_});
  Message in = run_->take(id_, src, tag);
  if (FaultInjector* fi = run_->injector.get())
    fi->verify_receive(id_, src, tag, in.data, in.checksum, in.seq);
  // One simultaneous exchange round: a single latency unit, and the wire
  // carries both directions concurrently, so the clock advances by the
  // larger payload only (paper Section II-A: "every processor can send and
  // receive one message at a time").
  const double w = std::max(sent, static_cast<double>(in.data.size()));
  account(1.0, w, 0.0);
  vtime_ = std::max(vtime_, in.sender_vtime) + params().alpha +
           params().beta * w;
  if (tracer != nullptr)
    tracer->on_shift(id_, dst, src, tag, sent_view, in.data, vtime_);
  return std::move(in.data);
}

void Rank::charge_flops(double f) {
  CATRSM_CHECK(f >= 0.0, "charge_flops: negative flop count");
  account(0.0, 0.0, f);
  vtime_ += params().gamma * f;
  if (check::TraceRecorder* t = run_->tracer.get())
    t->on_flops(id_, f, vtime_);
}

const MachineParams& Rank::params() const { return run_->params; }

check::CollectiveMatcher* Rank::matcher() const {
  return run_->matcher.get();
}

check::TraceRecorder* Rank::tracer() const { return run_->tracer.get(); }

FaultInjector* Rank::fault_injector() const { return run_->injector.get(); }

namespace {

// Serials start at 1, so a thread's empty epoch cache (machine 0) matches
// no machine.
std::atomic<std::uint64_t> g_machine_serials{0};

struct MembersHash {
  std::size_t operator()(const std::vector<int>& members) const noexcept {
    return static_cast<std::size_t>(members_hash(members));
  }
};

/// The epochs this thread has looked up, for one machine at a time.
struct EpochCache {
  std::uint64_t machine = 0;  // Machine::serial_ the ids belong to
  std::unordered_map<std::vector<int>, std::uint64_t, MembersHash> ids;
};
thread_local EpochCache tls_epochs;

}  // namespace

std::uint64_t Rank::comm_epoch(const std::vector<int>& members) {
  Machine* m = run_->machine;
  EpochCache& cache = tls_epochs;
  if (cache.machine != m->serial_) {
    cache.ids.clear();
    cache.machine = m->serial_;
  } else if (const auto it = cache.ids.find(members); it != cache.ids.end()) {
    return it->second;
  }
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(m->epoch_mu_);
    id = m->epoch_ids_.try_emplace(members, m->epoch_ids_.size())
             .first->second;
  }
  cache.ids.emplace(members, id);
  return id;
}

// ---------------------------------------------------------------------------
// RunStats

double RunStats::max_msgs() const {
  double m = 0.0;
  for (const auto& c : per_rank) m = std::max(m, c.msgs);
  return m;
}
double RunStats::max_words() const {
  double m = 0.0;
  for (const auto& c : per_rank) m = std::max(m, c.words);
  return m;
}
double RunStats::max_flops() const {
  double m = 0.0;
  for (const auto& c : per_rank) m = std::max(m, c.flops);
  return m;
}
double RunStats::total_words() const {
  double s = 0.0;
  for (const auto& c : per_rank) s += c.words;
  return s;
}

// ---------------------------------------------------------------------------
// RunContext: transport

void RunContext::deliver(int src, int dst, int tag, Message msg) {
  // Armed fault injection intercepts here — the single choke point both
  // send and shift deliver through. on_deliver stamps the verification
  // checksum/sequence (and applies payload corruption) before the message
  // enters the inbox; it runs on rank `src`, outside the inbox lock, and
  // writes only rank src's injector counters.
  auto act = FaultInjector::Action::kPass;
  if (FaultInjector* fi = injector.get()) {
    act = fi->on_deliver(src, dst, tag, &msg.data, &msg.checksum, &msg.seq);
    if (act == FaultInjector::Action::kDrop) return;  // vanished in flight
  }
  Inbox& in = inboxes[static_cast<std::size_t>(dst)];
  void* waiter = nullptr;
  {
    std::lock_guard<std::mutex> lock(in.mu);
    if (act == FaultInjector::Action::kDelay) {
      // Held back: flushed behind this sender's next delivery to dst. If
      // none ever flushes it, the receiver blocks and the run stalls into
      // a declared deadlock.
      in.held.push_back({src, tag, std::move(msg)});
      return;
    }
    in.queued.push_back({src, tag, std::move(msg)});
    if (act == FaultInjector::Action::kDuplicate) {
      Message dup = in.queued.back().msg;  // slab share, no copy
      in.queued.push_back({src, tag, std::move(dup)});
    }
    const bool waits_on_src = in.waiter != nullptr && in.waiter_src == src;
    bool wake = waits_on_src && in.waiter_tag == tag;
    for (auto it = in.held.begin(); it != in.held.end();) {
      if (it->src != src) {
        ++it;
        continue;
      }
      wake = wake || (waits_on_src && in.waiter_tag == it->tag);
      in.queued.push_back(std::move(*it));
      it = in.held.erase(it);
    }
    if (wake) waiter = std::exchange(in.waiter, nullptr);
  }
  if (waiter != nullptr) RankScheduler::wake(waiter);
}

Message RunContext::take(int dst, int src, int tag) {
  Inbox& in = inboxes[static_cast<std::size_t>(dst)];
  const auto oldest = [&] {
    return std::find_if(in.queued.begin(), in.queued.end(),
                        [&](const Inbox::Entry& e) {
                          return e.src == src && e.tag == tag;
                        });
  };
  std::unique_lock<std::mutex> lock(in.mu);
  auto it = oldest();
  void* const self = RankScheduler::current_rank();
  while (it == in.queued.end() && !aborted.load()) {
    in.waiter = self;
    in.waiter_src = src;
    in.waiter_tag = tag;
    // Abort wakes only the waiters it finds registered, so re-check under
    // the inbox lock after registering: either this load sees the abort,
    // or the abort's scan (serialized by in.mu) sees the waiter and wakes
    // it — never neither.
    if (aborted.load()) break;
    check::RankWait& w = waits[static_cast<std::size_t>(dst)];
    w.src = src;
    w.tag = tag;
    lock.unlock();
    RankScheduler::park();
    lock.lock();
    it = oldest();
  }
  in.waiter = nullptr;
  if (it == in.queued.end()) {
    // Another rank failed; propagate so the whole run unwinds cleanly
    // (when the failure was a declared deadlock, rethrow it as such so
    // every rank's unwind carries the diagnostic dump).
    lock.unlock();
    if (deadlocked.load()) fault_deadlock();
    throw Error("simulated run aborted by failure on a peer rank");
  }
  Message msg = std::move(it->msg);
  in.queued.erase(it);
  return msg;
}

std::vector<check::PendingQueue> RunContext::pending(bool held) {
  std::vector<check::PendingQueue> out;
  for (int dst = 0; dst < p; ++dst) {
    Inbox& in = inboxes[static_cast<std::size_t>(dst)];
    std::lock_guard<std::mutex> lock(in.mu);
    const std::size_t first = out.size();
    for (const Inbox::Entry& e : held ? in.held : in.queued) {
      std::size_t i = first;
      while (i < out.size() && (out[i].src != e.src || out[i].tag != e.tag))
        ++i;
      if (i == out.size()) out.push_back({dst, e.src, e.tag, 0, 0});
      ++out[i].messages;
      out[i].words += e.msg.data.size();
    }
  }
  return out;
}

void RunContext::declare_deadlock() {
  if (aborted.load()) return;
  try {
    // No rank of this run runs until abort_all below, so the inboxes and
    // waits are quiescent: summarize them for the dump without racing.
    std::vector<std::string> contexts(static_cast<std::size_t>(p));
    if (matcher != nullptr)
      for (int r = 0; r < p; ++r)
        contexts[static_cast<std::size_t>(r)] = matcher->context_of(r);
    std::string dump =
        check::describe_deadlock(waits, pending(false), contexts);
    std::lock_guard<std::mutex> lock(error_mu);
    deadlock_dump = std::move(dump);
    deadlocked.store(true);
  } catch (...) {
    fail(std::current_exception());  // could not build the dump
    return;
  }
  abort_all();
}

void RunContext::fault_deadlock() {
  std::lock_guard<std::mutex> lock(error_mu);
  throw check::DeadlockError(deadlock_dump);
}

void RunContext::abort_all() {
  // Wake every rank OF THIS RUN blocked in take(); they observe aborted
  // and unwind. Only waiters registered in this run's own inboxes are
  // touched, so concurrent streams never notice.
  aborted.store(true);
  for (Inbox& in : inboxes) {
    void* waiter = nullptr;
    {
      std::lock_guard<std::mutex> lock(in.mu);
      waiter = std::exchange(in.waiter, nullptr);
    }
    if (waiter != nullptr) RankScheduler::wake(waiter);
  }
}

void RunContext::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error) first_error = std::move(error);
  }
  abort_all();
}

void RunContext::rank_main(int i) {
  try {
    body(*ranks[static_cast<std::size_t>(i)]);
    waits[static_cast<std::size_t>(i)].finished = true;
  } catch (...) {
    fail(std::current_exception());
  }
}

RunStats RunContext::wait_and_assemble() {
  machine->scheduler().wait(sub);
  std::lock_guard<std::mutex> lock(assemble_mu);
  if (!assembled) {
    assembled = true;
    try {
      {
        std::lock_guard<std::mutex> el(error_mu);
        // A deadlock declaration outranks the per-rank unwind errors
        // racing with it: every rank should surface the same dump.
        if (!deadlock_dump.empty()) throw check::DeadlockError(deadlock_dump);
        if (first_error) std::rethrow_exception(first_error);
      }

      if (injector != nullptr) {
        // Residual sweep (armed runs only): every rank returned cleanly,
        // so the inboxes are quiescent — anything still queued or held
        // back is an injected delivery no receive ever consumed (an
        // unconsumed duplicate, a never-flushed delay) that would
        // otherwise vanish silently with the run.
        std::ostringstream residue;
        std::size_t leftovers = 0;
        for (const bool held : {false, true}) {
          for (const check::PendingQueue& q : pending(held)) {
            leftovers += q.messages;
            residue << "\n  " << q.messages
                    << (held ? " held-back delivery(ies) "
                             : " queued message(s) ")
                    << q.src << "->" << q.dst << " tag " << q.tag;
          }
        }
        if (leftovers > 0) {
          throw check::TransportResidueError(
              "transport residue after a completed run (" +
              std::to_string(leftovers) +
              " unconsumed delivery(ies); fault plan " +
              injector->plan().describe() + "):" + residue.str());
        }
      }

      stats.per_rank.reserve(static_cast<std::size_t>(p));
      for (const auto& r : ranks) {
        stats.per_rank.push_back(r->cost());
        stats.critical_time = std::max(stats.critical_time, r->vtime());
        for (const auto& [name, cost] : r->phase_costs()) {
          Cost& agg = stats.phase_max[name];
          agg.msgs = std::max(agg.msgs, cost.msgs);
          agg.words = std::max(agg.words, cost.words);
          agg.flops = std::max(agg.flops, cost.flops);
        }
      }
      if (tracer != nullptr) {
        std::vector<double> vtimes;
        vtimes.reserve(static_cast<std::size_t>(p));
        for (const auto& r : ranks) vtimes.push_back(r->vtime());
        tracer->finish_run(stats.per_rank, vtimes, stats.critical_time);
      }
    } catch (...) {
      outcome = std::current_exception();
    }
    if (injector != nullptr) injections_final = injector->injections();
    machine->retire_run(this);
  }
  if (outcome) std::rethrow_exception(outcome);
  return stats;
}

// ---------------------------------------------------------------------------
// RunTicket

bool RunTicket::done() const {
  CATRSM_CHECK(rc_ != nullptr, "RunTicket: empty ticket");
  return RankScheduler::done(rc_->sub);
}

RunStats RunTicket::wait() {
  CATRSM_CHECK(rc_ != nullptr, "RunTicket: empty ticket");
  return rc_->wait_and_assemble();
}

int RunTicket::injections() const {
  CATRSM_CHECK(rc_ != nullptr, "RunTicket: empty ticket");
  std::lock_guard<std::mutex> lock(rc_->assemble_mu);
  return rc_->injections_final;
}

// ---------------------------------------------------------------------------
// Machine

Machine::Machine(int p, MachineParams params)
    : serial_(++g_machine_serials), p_(p), params_(params) {
  CATRSM_CHECK(p >= 1, "machine needs at least one rank");
  if (env::flag_or("CATRSM_SIM_CHECK", false)) set_collective_checking(true);
  if (const std::optional<FaultPlan> plan = FaultPlan::from_env())
    arm_fault(*plan);
}

Machine::~Machine() {
  std::vector<std::shared_ptr<RunContext>> pending;
  {
    std::lock_guard<std::mutex> lock(runs_mu_);
    pending = inflight_;
  }
  for (const auto& rc : pending)
    if (rc->sub != nullptr && scheduler_ != nullptr) scheduler_->wait(rc->sub);
}

void Machine::set_collective_checking(bool on) { checking_on_ = on; }

void Machine::set_tracing(bool on, bool capture_payloads) {
  tracing_on_ = on;
  trace_payloads_ = capture_payloads;
  if (on)
    // The observation slot starts with a pristine recorder so pre-run
    // take_trace() fails with the same diagnostic it always did; each
    // waited run replaces it with that run's recorder.
    tracer_ = std::make_unique<check::TraceRecorder>(p_, params_,
                                                     capture_payloads);
  else
    tracer_.reset();
}

check::Trace Machine::take_trace() {
  CATRSM_CHECK(tracer_ != nullptr, "take_trace: tracing is not enabled");
  CATRSM_CHECK(tracer_->run_complete(),
               "take_trace: the last traced run faulted before completing "
               "(a torso trace is not replayable); run again first");
  return tracer_->take();
}

void Machine::arm_fault(const FaultPlan& plan) {
  armed_plan_ = std::make_unique<FaultPlan>(plan);
  // Pristine prototype so plan() is readable before any run; each waited
  // armed run replaces it with that run's injector and injection record.
  injector_ = std::make_unique<FaultInjector>(plan, p_);
}

void Machine::disarm_fault() {
  armed_plan_.reset();
  injector_.reset();
}

RankScheduler& Machine::scheduler() {
  if (!scheduler_) scheduler_ = std::make_unique<RankScheduler>(p_);
  return *scheduler_;
}

HandleStore& Machine::handle_store() {
  if (!handles_) handles_ = std::make_unique<HandleStore>(p_);
  return *handles_;
}

void Machine::prune_finished_locked() {
  inflight_.erase(
      std::remove_if(inflight_.begin(), inflight_.end(),
                     [](const std::shared_ptr<RunContext>& rc) {
                       return RankScheduler::done(rc->sub);
                     }),
      inflight_.end());
}

void Machine::retire_run(RunContext* rc) {
  {
    std::lock_guard<std::mutex> lock(runs_mu_);
    inflight_.erase(
        std::remove_if(inflight_.begin(), inflight_.end(),
                       [rc](const std::shared_ptr<RunContext>& e) {
                         return e.get() == rc;
                       }),
        inflight_.end());
  }
  if (rc->tracer != nullptr) tracer_ = std::move(rc->tracer);
  if (rc->injector != nullptr) injector_ = std::move(rc->injector);
}

RunTicket Machine::run_async(const std::function<void(Rank&)>& fn,
                             std::function<void()> on_complete) {
  auto rc = std::make_shared<RunContext>(this, fn);
  if (checking_on_)
    rc->matcher = std::make_unique<check::CollectiveMatcher>(p_);
  if (tracing_on_)
    rc->tracer = std::make_unique<check::TraceRecorder>(p_, params_,
                                                        trace_payloads_);
  if (armed_plan_ != nullptr)
    rc->injector = std::make_unique<FaultInjector>(*armed_plan_, p_);
  RankScheduler& sched = scheduler();
  {
    std::unique_lock<std::mutex> lock(runs_mu_);
    prune_finished_locked();
    while (static_cast<int>(inflight_.size()) >= kMaxStreams) {
      // Stream cap reached: drain the oldest in-flight run. Its ranks
      // progress on the workers regardless of anyone waiting, so this
      // cannot deadlock the admitting thread.
      std::shared_ptr<RunContext> oldest = inflight_.front();
      lock.unlock();
      sched.wait(oldest->sub);
      lock.lock();
      prune_finished_locked();
    }
    // The submission's job handle is dropped by the scheduler when the
    // last rank finishes, so this shared_ptr cycle (rc -> sub -> job ->
    // rc) is broken at run completion.
    std::shared_ptr<RunContext> body_rc = rc;
    rc->sub = sched.submit([body_rc](int i) { body_rc->rank_main(i); },
                           std::move(on_complete),
                           [body_rc] { body_rc->declare_deadlock(); });
    inflight_.push_back(rc);
  }
  return RunTicket(std::move(rc));
}

RunStats Machine::run(const std::function<void(Rank&)>& fn) {
  return run_async(fn).wait();
}

}  // namespace catrsm::sim
