#pragma once
// Simulated distributed-memory machine.
//
// p ranks execute a user SPMD function concurrently on a persistent
// worker pool (see sim/scheduler.hpp — workers are created on the first
// run and reused for the machine's lifetime; ranks are cooperative
// fibers).
// Ranks exchange zero-copy sim::Buffer payloads through one inbox per
// receiving rank: a short list of (src, tag, message) in arrival order,
// matched FIFO per (src, tag), so transport state grows with the messages
// in flight, not with p^2. Every transfer advances
// alpha-beta-gamma cost counters and a per-rank *virtual clock*: a receive
// cannot complete before the sender's virtual send time, so max-over-ranks
// of the final clocks is the exact critical path length of the run under
// the machine parameters.
//
// Runs come in two flavors: Machine::run blocks (and is exactly
// run_async + RunTicket::wait), while Machine::run_async dispatches an
// EXECUTION STREAM and returns a future-like RunTicket immediately. Up
// to kMaxStreams runs can be in flight at once; each gets its own
// RunContext — inboxes, deadlock census, virtual clocks,
// S/W/F counters, collective matcher, trace recorder, and fault injector
// are all per-run state — so streams never exchange messages, a deadlock
// or injected fault in one stream cannot abort or poison another, and
// every stream's modeled costs are byte-identical to the same run
// executed alone. Only the communicator-epoch registry is shared (ids
// depend solely on the member list, so sharing cannot leak state across
// runs). Overlap is real: a worker whose fibers are all blocked in one
// stream runs runnable fibers of another instead of parking.
//
// This is the substitution for MPI on a real cluster: the paper's claims
// are statements about S, W, F along the critical path, and this machine
// measures exactly those for real executions on real data.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/cost.hpp"
#include "sim/handle_store.hpp"
#include "sim/scheduler.hpp"
#include "support/check.hpp"

namespace catrsm::sim {

namespace check {
class CollectiveMatcher;  // sim/check/coll_matcher.hpp
class TraceRecorder;      // sim/check/trace.hpp
struct Trace;
}  // namespace check

class FaultInjector;  // sim/fault.hpp
struct FaultPlan;

class Machine;
class RunContext;  // per-run state, private to machine.cpp

/// The execution context handed to each simulated rank. Not copyable; lives
/// for the duration of one run.
class Rank {
 public:
  int id() const { return id_; }
  int nprocs() const { return nprocs_; }

  /// Point-to-point send of `data` to world rank `dst` (buffered, eager:
  /// never blocks). Zero-copy: the message shares the buffer's slab.
  /// Charges S += 1, W += data.size().
  void send(int dst, Buffer data, int tag);

  /// Blocking receive from world rank `src`. Charges S += 1, W += size and
  /// synchronizes the virtual clock with the sender's send time. Returns a
  /// view of the sender's slab — no copy on the receive path either.
  Buffer recv(int src, int tag);

  /// Simultaneous exchange with `peer` (the butterfly primitive): one
  /// latency unit and max(sent, received) words, matching the model's
  /// simultaneous send+receive assumption.
  Buffer sendrecv(int peer, Buffer data, int tag);

  /// Simultaneous shifted exchange (the Bruck primitive): send to `dst`
  /// while receiving from `src` (possibly different ranks). Same cost as
  /// sendrecv: one latency unit, max(sent, received) words.
  Buffer shift(int dst, int src, Buffer data, int tag);

  /// Charge local computation of `f` flops (advances clock by gamma * f).
  void charge_flops(double f);

  /// Stable identity of the communicator with this exact ordered member
  /// list: sequential ids handed out by a per-machine registry, so two
  /// distinct groups can never share an id (unlike a hash). Every member
  /// asking for the same list gets the same id — including members in
  /// different concurrent runs, which is safe because tags only ever
  /// match within a run's own inboxes. A repeat lookup is answered from
  /// the calling thread's copy of the registry, without its lock.
  std::uint64_t comm_epoch(const std::vector<int>& members);

  /// Accumulated cost counters for this rank.
  const Cost& cost() const { return cost_; }

  /// Current virtual clock value.
  double vtime() const { return vtime_; }

  /// Phase-scoped accounting: while phase labels are on the stack, every
  /// charge is attributed to each active label (so nested scopes — e.g. a
  /// driver's "algorithm" around a solver's "solve"/"update" — both see
  /// their charges). Algorithms use this to reproduce the paper's
  /// per-phase cost tables in a single run. Prefer PhaseScope over the raw
  /// push/pop.
  void push_phase(std::string name) { phase_stack_.push_back(std::move(name)); }
  void pop_phase();
  const std::map<std::string, Cost>& phase_costs() const {
    return phase_costs_;
  }

  const MachineParams& params() const;

  /// This run's collective-matching validator, null when checking is
  /// off (see Machine::set_collective_checking). Collective entry points
  /// register their calls here.
  check::CollectiveMatcher* matcher() const;
  /// This run's trace recorder, null when tracing is off.
  check::TraceRecorder* tracer() const;
  /// This run's fault injector, null when no plan is armed (see
  /// Machine::arm_fault). Collective entry points call its skew hook.
  FaultInjector* fault_injector() const;

 private:
  friend class Machine;
  friend class RunContext;
  Rank(RunContext* rc, int id, int nprocs)
      : run_(rc), id_(id), nprocs_(nprocs) {}
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  void account(double msgs, double words, double flops);

  RunContext* run_;
  int id_;
  int nprocs_;
  Cost cost_;
  double vtime_ = 0.0;
  std::vector<std::string> phase_stack_;
  std::map<std::string, Cost> phase_costs_;
};

/// RAII phase scope: pops its label on exit.
class PhaseScope {
 public:
  PhaseScope(Rank& rank, std::string name) : rank_(rank) {
    rank_.push_phase(std::move(name));
  }
  ~PhaseScope() { rank_.pop_phase(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Rank& rank_;
};

/// Aggregate statistics of one simulated run.
struct RunStats {
  std::vector<Cost> per_rank;
  double critical_time = 0.0;  // max over ranks of final virtual clock
  /// Per-phase maxima over ranks (populated from Rank::set_phase labels).
  std::map<std::string, Cost> phase_max;

  /// Max over ranks — for the load-balanced algorithms in this library
  /// these coincide (to within the last level of a tree) with the paper's
  /// critical-path S, W, F.
  double max_msgs() const;
  double max_words() const;
  double max_flops() const;
  double total_words() const;  // communication volume (Irony-Toledo metric)
  Cost max_cost() const { return Cost{max_msgs(), max_words(), max_flops()}; }

  /// Max-over-ranks cost of one labeled phase; zero when absent.
  Cost phase_cost(const std::string& name) const {
    const auto it = phase_max.find(name);
    return it == phase_max.end() ? Cost{} : it->second;
  }
};

/// Future-like handle of one in-flight simulated run (one execution
/// stream). Obtained from Machine::run_async; must not outlive its
/// Machine. Copyable (shares the run's state).
class RunTicket {
 public:
  RunTicket() = default;
  bool valid() const { return rc_ != nullptr; }
  /// True once every rank of the run finished (success or failure).
  bool done() const;
  /// Block until the run finishes, then assemble and return its stats.
  /// The first rank error is rethrown (a deadlock declaration outranks
  /// per-rank unwind errors; transport residue of an armed run faults
  /// here too). Idempotent: later calls return the same stats or rethrow
  /// the same error. Also deposits the run's trace recorder / fault
  /// injector into the machine's last-run observation slots (see
  /// Machine::take_trace / Machine::fault_injector).
  RunStats wait();
  /// Transport faults injected into THIS run (0 when no plan was armed).
  /// Valid after wait() returned or threw — per-run, so a fault firing
  /// in a concurrent stream never shows up here.
  int injections() const;

 private:
  friend class Machine;
  explicit RunTicket(std::shared_ptr<RunContext> rc) : rc_(std::move(rc)) {}
  std::shared_ptr<RunContext> rc_;
};

/// How many runs one machine keeps in flight; run_async past it drains
/// the oldest first.
inline constexpr int kMaxStreams = 4;

class Machine {
 public:
  explicit Machine(int p, MachineParams params = MachineParams{});
  /// Blocks until every in-flight run finished (unwaited tickets keep
  /// their results; their streams are drained, not cancelled).
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int nprocs() const { return p_; }
  const MachineParams& params() const { return params_; }

  /// Execute `fn` on all p ranks concurrently; blocks until all finish.
  /// Any exception thrown by a rank is rethrown here (first one wins).
  /// Exactly run_async(fn).wait() — worker threads persist across runs;
  /// the first run creates the scheduler, later runs reuse its parked
  /// workers.
  RunStats run(const std::function<void(Rank&)>& fn);

  /// Dispatch `fn` on all p ranks as an independent execution stream and
  /// return immediately. Up to max_streams() runs fly at once; when the
  /// cap is reached this blocks until the oldest in-flight run drains.
  /// Each stream has private inboxes, clocks, counters and tooling —
  /// see the file comment for the isolation guarantees. `fn` is copied
  /// (it outlives the call). The ticket (any copy) must be wait()ed or
  /// dropped before the machine is destroyed. `on_complete` (optional)
  /// fires on a worker thread the moment the last rank finishes — before
  /// any wait() returns — success or failure; the api layer uses it to
  /// release handle-store run-use marks without requiring the host to
  /// wait the ticket first.
  RunTicket run_async(const std::function<void(Rank&)>& fn,
                      std::function<void()> on_complete = nullptr);

  /// In-flight run cap (kMaxStreams).
  int max_streams() const { return kMaxStreams; }

  /// The persistent worker pool (created lazily by the first run).
  RankScheduler& scheduler();

  /// Rank-local persistent operand storage (created lazily): one slot per
  /// (handle, rank), surviving across runs — the machine-side backing of
  /// api::DistHandle resident operands.
  HandleStore& handle_store();

  // --- Correctness tooling (sim/check) -----------------------------------
  // A hung run is detected unconditionally: the deadlock detector is
  // always on (it costs nothing until a receive actually blocks — see
  // sim/check/deadlock.hpp for the rule) and faults the run with a
  // per-rank diagnostic dump instead of hanging. The two tools below are
  // opt-in; neither touches the cost counters, so modeled S/W/F are
  // identical with or without them. Each run gets its own instance built
  // from the machine-level setting at run_async time.

  /// Attach (or detach) the collective-matching validator: every coll::
  /// entry registers its (epoch, op, root, counts) and mismatched
  /// sequences fault immediately with both sides' records. Also enabled
  /// by CATRSM_SIM_CHECK=1 at machine construction. Must not be toggled
  /// during a run.
  void set_collective_checking(bool on);

  /// Attach (or detach) the trace recorder: every run logs per-rank
  /// communication events (with payloads when capture_payloads — the
  /// replayable form). Must not be toggled during a run.
  void set_tracing(bool on, bool capture_payloads = true);
  bool tracing() const { return tracer_ != nullptr; }
  /// Move out the most recently WAITED traced run's event log (throws
  /// when tracing is off or that run faulted before completing — a torso
  /// trace is not replayable; include sim/check/trace.hpp for Trace).
  check::Trace take_trace();

  /// Arm (or re-arm) a fault-injection plan: subsequent runs perturb the
  /// transport at the plan's deterministically seeded sites and verify
  /// payload checksums + per-edge sequence numbers on every receive. Also
  /// armed by CATRSM_SIM_FAULT=<class>:<seed>[:<rate>] at machine
  /// construction. Zero cost when never armed (one null test per
  /// transport op). Must not be toggled during a run. Injection decisions
  /// are pure functions of (seed, logical coordinates), so each run's
  /// private injector fires at exactly the sites the shared one did.
  void arm_fault(const FaultPlan& plan);
  /// Disarm fault injection; the next run is byte-identical to one on a
  /// machine that never armed a plan.
  void disarm_fault();
  /// The injector of the most recently waited armed run (the armed plan's
  /// pristine injector before any run); null when disarmed.
  /// check::report_fault reads its plan and injection record when
  /// classifying a faulted run. Per-run records: prefer
  /// RunTicket::injections when streams overlap.
  FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  friend class Rank;
  friend class RunContext;
  friend class RunTicket;

  /// Drop finished runs from the in-flight list; runs_mu_ held.
  void prune_finished_locked();
  /// Remove the run from the in-flight list and deposit its
  /// tracer/injector into the last-run slots.
  /// Called exactly once per run, from RunTicket::wait.
  void retire_run(RunContext* rc);

  /// Sequential communicator-epoch registry (see Rank::comm_epoch). It is
  /// append-only, so each thread keeps a copy of the ids it has looked up
  /// and locks only on a miss; the copy is keyed on serial_, which no
  /// other machine of the process shares, even one at the same address.
  const std::uint64_t serial_;
  std::mutex epoch_mu_;
  std::map<std::vector<int>, std::uint64_t> epoch_ids_;

  int p_;
  MachineParams params_;
  std::unique_ptr<RankScheduler> scheduler_;
  std::unique_ptr<HandleStore> handles_;

  // Tool settings, applied to each new run at run_async time.
  bool checking_on_ = false;
  bool tracing_on_ = false;
  bool trace_payloads_ = true;
  std::unique_ptr<FaultPlan> armed_plan_;

  // Last-run observation slots (deposited by RunTicket::wait): keep the
  // serial-flow semantics of take_trace() / fault_injector() byte-exact.
  std::unique_ptr<check::TraceRecorder> tracer_;
  std::unique_ptr<FaultInjector> injector_;

  // In-flight streams (guarded by runs_mu_).
  std::mutex runs_mu_;
  std::vector<std::shared_ptr<RunContext>> inflight_;
};

}  // namespace catrsm::sim
