#pragma once
// Seeded, deterministic fault injection at the simulated transport
// boundary.
//
// A FaultPlan names one fault class and a seed; arming it on a Machine
// (Machine::arm_fault, or CATRSM_SIM_FAULT=<class>:<seed>[:<rate>] at
// construction) installs a FaultInjector that perturbs the transport at
// deterministically chosen sites. The point is not chaos testing — it is
// a *coverage proof* for the correctness oracle: every fault class must
// be caught by a named detector (deadlock WFG, collective matcher,
// transport checksum/sequence verification, residual sweep, trace
// replay, abort propagation) and never escape as a silent wrong answer
// or a hang. tests/test_fault.cpp holds the (fault class x detector)
// matrix; check::report_fault classifies what fired.
//
// Determinism discipline: injection decisions are pure functions of the
// plan seed and *logical* per-message coordinates — the (src, dst, tag)
// delivery sequence number of a point-to-point message, the sender's
// per-(src, dst) ordinal within a collective message's family band, a
// rank's transport-op ordinal, a collective's (member list, call)
// position — never of thread arrival order. Communicator epochs are
// registry ids handed out in arrival order, so no site keys on one.
// Two runs of the same SPMD program under the same plan inject at the
// same sites, so every faulted test is replayable from its seed alone.
//
// Cost discipline: a machine with no plan armed takes exactly one null
// pointer test per transport op (the same zero-cost contract as the
// deadlock detector), and the injector never touches the cost counters
// even when armed — detection, not the fault, ends the run.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/buffer.hpp"

namespace catrsm::sim {

/// The injectable fault classes (>= 6, per the coverage matrix).
enum class FaultClass {
  kDrop,            // a delivered message silently vanishes
  kDuplicate,       // a message is delivered twice
  kCorrupt,         // payload words are flipped in flight
  kDelay,           // delivery is held back, reordering the mailbox
  kSkewCollective,  // one rank enters a collective with a wrong count/root
  kKillRank,        // a rank dies mid-run at a transport op
};

/// Spec name of a fault class: drop|dup|corrupt|delay|skew|kill.
const char* fault_class_name(FaultClass c);

/// One armed fault: class + seed + firing rate.
struct FaultPlan {
  FaultClass cls = FaultClass::kDrop;
  std::uint64_t seed = 0;
  /// Fire at roughly one eligible site in `rate` (a deterministic per-site
  /// hash test, not sampling); rate 1 fires at every eligible site. The
  /// kill class ignores rate (one victim, one death site per run).
  std::uint32_t rate = 8;
  /// When false, the armed transport skips its live checksum/sequence
  /// verification — used by tests to prove trace replay alone catches a
  /// corruption that the live run completed with.
  bool verify_transport = true;

  /// Parse "<class>:<seed>[:<rate>]", e.g. "corrupt:42" or "drop:7:4".
  /// Returns nullopt (no fault armed) for an empty or malformed spec.
  static std::optional<FaultPlan> parse(const std::string& spec);
  /// Parse the CATRSM_SIM_FAULT environment knob; a malformed value gets
  /// the standard warn-and-fallback stderr line (fallback: no fault).
  static std::optional<FaultPlan> from_env();

  std::string describe() const;
};

/// Injection state for one armed FaultPlan over one run: every armed run
/// builds its own injector. All transport hooks are called with
/// deterministic coordinates (see the header comment). Each rank's
/// counters live in its own RankSeq, which holds only the (peer, tag)
/// pairs its traffic uses, and only that rank writes it.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int p);

  const FaultPlan& plan() const { return plan_; }

  /// What deliver() must do with one stamped message.
  enum class Action { kPass, kDrop, kDuplicate, kDelay };

  /// Sender-side hook, called by rank `src` for each delivery into
  /// (dst, src, tag): stamps the transport-verification sequence number
  /// and checksum (pre-corruption, so a corrupted payload cannot
  /// re-checksum itself), applies payload corruption in place when this
  /// site is chosen, and returns the queueing action.
  Action on_deliver(int src, int dst, int tag, Buffer* payload,
                    std::uint64_t* checksum, std::uint32_t* seq);

  /// Receiver-side live verification, called by rank `dst` right after a
  /// message is taken (before any accounting). Throws
  /// check::TransportChecksumError / check::TransportSequenceError on a
  /// payload hash mismatch or a non-consecutive sequence number. No-op
  /// when the plan disables transport verification.
  void verify_receive(int dst, int src, int tag, const Buffer& payload,
                      std::uint64_t checksum, std::uint32_t seq);

  /// Kill hook, called by every rank at each transport op; throws
  /// check::RankKilledError when this rank reaches its death site.
  void maybe_kill(int rank);

  /// Collective-skew hook, called on entry to a primitive collective
  /// before any checking or communication. `group` identifies the
  /// communicator by a hash of its member list. When this (group, call) site
  /// is chosen and `world_rank` is the chosen victim, perturbs *root
  /// (scatter/gather, when *root >= 0) or *counts (allgather/
  /// reduce-scatter — never the caller's own slot, so local size checks
  /// still pass and the collective matcher is what sees the disagreement)
  /// and returns true.
  bool maybe_skew(std::uint64_t group, int world_rank, int comm_rank,
                  int comm_size, int* root, std::vector<std::size_t>* counts);

  /// Number of faults actually fired this run, and one log line per fire
  /// (site coordinates included) for check::FaultReport.
  int injections() const;
  std::vector<std::string> injection_log() const;

 private:
  bool fires(std::uint64_t a, std::uint64_t b, std::uint64_t c) const;
  void record(std::string line);

  FaultPlan plan_;
  int kill_victim_ = 0;
  std::uint32_t kill_op_ = 1;
  std::uint32_t victim_ops_ = 0;  // writer: the kill victim

  // Rank r's counters (writer: rank r). Aligned so neighbouring ranks
  // never write one cache line.
  struct alignas(64) RankSeq {
    // As sender: the verification sequence per (dst, tag), and the site
    // ordinal per (dst, collective family band), the band keyed
    // kTagBase + band * kEpochSpace.
    std::map<std::pair<int, int>, std::uint32_t> send;
    std::map<std::pair<int, int>, std::uint32_t> band;
    // As receiver: the next expected sequence per (src, tag).
    std::map<std::pair<int, int>, std::uint32_t> recv;
    // Collective-call ordinal per member-list hash.
    std::map<std::uint64_t, std::uint32_t> coll;
  };
  std::vector<RankSeq> ranks_;

  mutable std::mutex log_mu_;  // guards the two fields below (rare: fires)
  int injections_ = 0;
  std::vector<std::string> log_;
};

}  // namespace catrsm::sim
