#pragma once
// Deadlock diagnostics for the simulated machine (sim/check subsystem).
//
// The stall is detected where ranks block (RankScheduler::park), and the
// machine hands this module a frozen snapshot of the stalled run. This
// module turns the snapshot into an actionable report: per-rank wait
// state, decoded collective tags, pending-mailbox summaries, and the
// wait-for-graph cycles, so "the run hangs" becomes "ranks 2 -> 5 -> 2
// wait on each other inside allgather epoch 7".
//
// Stall rule (scheduler.cpp and machine.cpp; documented here because
// this is the subsystem's home):
//  - Who can wake a run: only its own running ranks, through a delivery
//    or through abort_all after a rank fails. Runs never share mailboxes,
//    and a rank blocks only by parking in a receive.
//  - Why equal counts are exact: the scheduler counts each run's
//    unfinished ranks and its parked ones, a rank that sleeps in park()
//    with no wake pending; a wake uncounts it before it can run. When
//    the counts are equal, no rank of the run is running, so none will
//    ever run again. No snapshot, mailbox scan or recheck is needed, and
//    a run starved by other streams is never declared: a rank that was
//    woken but waits for a worker, or whose task has not started, is
//    not parked.
//  - Who reports: the park or the body return that makes the counts
//    equal calls the run's on_stall, inside that rank's task. The report
//    builds this module's dump and aborts the run, which wakes every
//    parked rank to unwind with DeadlockError.
//  - Why a report may repeat: the abort wakes ranks one at a time, so a
//    woken rank that returns while another is still counted as parked
//    makes the counts equal again. The run is then already aborting, and
//    the report returns at once.
// A receive that finds its message waiting pays nothing; one that blocks
// records its (src, tag) and updates the census once as it parks and
// once as it is woken.

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
