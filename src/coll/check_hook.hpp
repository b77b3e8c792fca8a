#pragma once
// Internal hook connecting the coll:: entry points to the sim/check
// correctness tooling. Included by the collective implementations only.

#include <cstddef>
#include <cstdint>

#include "coll/collectives.hpp"
#include "sim/check/coll_matcher.hpp"
#include "sim/check/trace.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace catrsm::coll {

/// Registers the caller's entry into a collective with the machine's
/// matcher and tracer (sim/check) — a single null check each when the
/// tools are detached, which is the default. The entry registration runs
/// BEFORE any communication, so a mismatched call sequence faults on the
/// offending rank instead of blocking on a tag nobody sends. Composite
/// collectives (bcast/reduce/allreduce) are validated through the
/// primitives they are built from. `counts` is passed only when the
/// collective's contract requires every member to agree on it (alltoall
/// payload sizes are legitimately rank-local, so they go unvalidated).
/// The destructor emits the trace's collective-exit marker.
class CheckScope {
 public:
  CheckScope(const sim::Comm& comm, CollOp op, int root, const Counts* counts,
             std::size_t words) {
    if (!comm.is_member()) return;
    sim::Rank& r = comm.ctx();
    if (sim::check::CollectiveMatcher* m = r.matcher())
      m->enter(comm.epoch(), comm.members(), r.id(), comm.rank(),
               static_cast<int>(op), coll_op_name(op), root, counts, words);
    if (sim::check::TraceRecorder* t = r.tracer()) {
      rank_ = &r;
      op_ = static_cast<int>(op);
      epoch_ = comm.epoch();
      t->on_coll(r.id(), true, op_, epoch_, words, r.vtime());
    }
  }
  ~CheckScope() {
    if (rank_ == nullptr) return;
    if (sim::check::TraceRecorder* t = rank_->tracer())
      t->on_coll(rank_->id(), false, op_, epoch_, 0, rank_->vtime());
  }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  sim::Rank* rank_ = nullptr;
  int op_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace catrsm::coll
