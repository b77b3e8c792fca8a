#pragma once
// Trace capture and deterministic replay (sim/check subsystem).
//
// An opt-in event recorder (Machine::set_tracing) logs every rank's
// communication events — p2p send/recv, simultaneous shifts, flop
// charges, collective entry/exit markers — each stamped with the rank's
// virtual clock and an FNV-1a hash of the payload, optionally with the
// full payload. Per-rank event streams need no cross-rank ordering: the
// SPMD program order of each rank IS its stream, and matched events
// cross-check each other through the payload hashes.
//
// The replayer re-executes a captured trace's communication skeleton on a
// fresh machine — re-sending the recorded payloads, verifying every
// received payload bit-for-bit against the recorded hash, re-charging the
// recorded flops — and then verifies the replayed per-rank S/W/F counters
// and virtual clocks are exactly equal to the recorded ones. A divergence
// faults with the rank, event index, and both values: the debugging tool
// for scheduler or transport changes ("same trace, different costs"
// localizes the first drifting event).
//
// Traces serialize to a compact binary file (native endianness — a
// debugging artifact, not an interchange format).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost.hpp"
#include "sim/machine.hpp"

namespace catrsm::sim::check {

/// Thrown by replay() on any divergence from the recorded run — payload
/// bytes, event shape, virtual clocks, or final S/W/F.
class ReplayMismatchError : public Error {
 public:
  explicit ReplayMismatchError(const std::string& what) : Error(what) {}
};

enum class EventKind : std::uint8_t {
  kSend = 0,
  kRecv,
  kShift,
  kFlops,
  kCollEnter,
  kCollExit,
};

struct TraceEvent {
  EventKind kind = EventKind::kSend;
  std::int32_t peer = -1;   // send: dst; recv: src; shift: dst; coll: family
  std::int32_t peer2 = -1;  // shift: src
  std::int32_t tag = 0;     // p2p tag; coll markers: comm epoch (truncated)
  std::uint64_t words = 0;   // payload words (shift: sent; coll: total)
  std::uint64_t words2 = 0;  // shift: received words
  std::uint64_t hash = 0;    // payload hash (recv/shift: received payload)
  std::uint64_t hash2 = 0;   // shift: sent-payload hash
  double flops = 0.0;        // kFlops charge
  double vtime = 0.0;        // rank virtual clock after the event
  std::vector<double> payload;  // captured sent payload (send/shift)
};

struct Trace {
  int p = 0;
  bool payloads = false;  // sent payloads captured (required for replay)
  MachineParams params;
  std::vector<std::vector<TraceEvent>> events;  // per rank, program order
  std::vector<Cost> final_cost;                 // per rank, at run end
  std::vector<double> final_vtime;
  double critical_time = 0.0;

  void save(const std::string& path) const;
  static Trace load(const std::string& path);
};

/// FNV-1a 64-bit over the byte representation of `data[0..n)`.
std::uint64_t hash_words(const double* data, std::size_t n);

/// Per-run event recorder; hooks in Rank::send/recv/shift/charge_flops
/// and the coll:: entry points feed it. All methods are called by the
/// owning rank only, so per-rank streams need no locking.
class TraceRecorder {
 public:
  /// Writes the trace header; one recorder records one run.
  TraceRecorder(int p, const MachineParams& params, bool capture_payloads);

  void on_send(int rank, int dst, int tag, const Buffer& data, double vtime);
  void on_recv(int rank, int src, int tag, const Buffer& data, double vtime);
  void on_shift(int rank, int dst, int src, int tag, const Buffer& sent,
                const Buffer& got, double vtime);
  void on_flops(int rank, double f, double vtime);
  void on_coll(int rank, bool enter, int family, std::uint64_t epoch,
               std::size_t words, double vtime);
  void finish_run(const std::vector<Cost>& final_cost,
                  const std::vector<double>& final_vtime,
                  double critical_time);

  /// Move the finished trace out.
  Trace take();

  /// True when the run reached finish_run — i.e. the trace is
  /// finalized and replayable. A faulted run leaves this false (its
  /// events stop at the fault and final costs were never recorded), and
  /// Machine::take_trace refuses to hand out such a torso.
  bool run_complete() const { return complete_; }

 private:
  bool complete_ = false;
  Trace trace_;
};

/// Re-execute `trace` on `m` and verify bit-identical payloads and
/// exactly equal S/W/F costs and virtual clocks; throws Error with the
/// first divergence. Requires a payload-capturing trace and a machine
/// with the same p and params. Returns the replayed run's stats.
RunStats replay(Machine& m, const Trace& trace);

/// First difference between two traces as a human-readable line; empty
/// when the traces are identical (payload presence aside, hashes decide).
std::string diff(const Trace& a, const Trace& b);

}  // namespace catrsm::sim::check
