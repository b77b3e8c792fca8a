#pragma once
// Deadlock diagnostics for the simulated machine (sim/check subsystem).
//
// The machine detects the stall itself — detection must live where the
// blocking happens (RunContext::take, the transport's one wait loop on
// either scheduler backend) — and hands this module a frozen
// snapshot of the stalled run. This module turns the snapshot into an
// actionable report: per-rank wait state, decoded collective tags,
// pending-mailbox summaries, and the wait-for-graph cycles, so "the run
// hangs" becomes "ranks 2 -> 5 -> 2 wait on each other inside allgather
// epoch 7".
//
// Detection protocol (implemented in machine.cpp, documented here because
// this is the subsystem's home): every blocking receive registers a
// (rank, src, tag) wait record before parking; the delivery that wakes the
// rank clears it, and so does the receive on its way out.
// The registration that makes every rank blocked-or-finished nominates
// the registering rank as a detection candidate. The candidate then
//   1. snapshots the wait records and a registration sequence number,
//   2. scans each blocked rank's awaited mailbox queue — a pending
//      matching message means a wake-up is merely unscheduled, so the
//      candidate stands down (false alarm), and
//   3. re-checks that the sequence number is unchanged — any delivery
//      consumed in between bumps it, so a stale snapshot can never be
//      declared.
// A declared deadlock is therefore exact: every rank is parked, no queued
// message can wake any of them, and no rank is running to produce one.
// The fast path pays nothing — registration only happens on receives
// that actually block, and sends are untouched.

#include <cstddef>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace catrsm::sim::check {

/// Thrown by Machine::run when the run deadlocks; what() carries the full
/// per-rank diagnostic dump.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& dump) : Error(dump) {}
};

/// One rank's state in the stalled run.
struct RankWait {
  bool finished = false;  // returned from the rank body
  int src = -1;           // awaited sender (valid when !finished)
  int tag = 0;            // awaited tag (valid when !finished)
};

/// One non-empty mailbox queue addressed to a stalled rank.
struct PendingQueue {
  int dst = -1;
  int src = -1;
  int tag = 0;
  std::size_t messages = 0;
  std::size_t words = 0;
};

/// Human-readable decoding of a message tag: collective tags (at or above
/// coll::kTagBase) name their family and communicator epoch, user tags
/// print as plain integers.
std::string describe_tag(int tag);

/// Build the diagnostic dump for a detected deadlock. `contexts` holds an
/// optional per-rank collective context line (from the collective matcher,
/// empty when checking is off or the rank never entered a collective).
std::string describe_deadlock(const std::vector<RankWait>& waits,
                              const std::vector<PendingQueue>& pending,
                              const std::vector<std::string>& contexts);

}  // namespace catrsm::sim::check
