#pragma once
// Rank-local persistent operand storage: the machine-side backing of
// api::DistHandle.
//
// A handle entry is one slot per world rank, each holding that rank's
// local block of a distributed matrix. Entries live OUTSIDE any
// Machine::run — they are created and released from the host thread and
// survive arbitrarily many runs, which is what lets a factor be scattered
// once and solved against many times with no per-execute redistribution.
// During a run, each rank touches only its own slot, so concurrent access
// from the rank fibers is data-race free by construction; the mutex only
// guards the id -> entry map and the bookkeeping fields, and ranks never
// take it (a run hands them its entries' slot spans, looked up at launch).
//
// The store holds la::Matrix values (moved in and out — never copied on
// the hot path). The layout that gives the blocks meaning lives with the
// api-level handle; the store is deliberately layout-agnostic.
//
// An entry's blocks stay in the store until its handle is released;
// resident_bytes() totals them for observability and bounds nothing.

#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"

namespace catrsm::sim {

class HandleStore {
 public:
  /// Store for a machine of `p` ranks.
  explicit HandleStore(int p);

  HandleStore(const HandleStore&) = delete;
  HandleStore& operator=(const HandleStore&) = delete;

  int nprocs() const { return p_; }

  /// New entry with p empty per-rank slots; returns its id (never 0,
  /// never reused).
  std::uint64_t create();

  /// Drop an entry and free its blocks, and release every entry attached
  /// to it with it. No-op for unknown ids (handles may race machine
  /// teardown in shutdown paths).
  void release(std::uint64_t id);

  /// Attach entry `child` to entry `parent`, so that releasing the parent
  /// releases the child too: state derived from an operand (a plan's
  /// Ltilde or replica of it) dies with the operand, whose id never
  /// returns. Returns false, attaching nothing, when the parent is already
  /// released.
  bool attach(std::uint64_t child, std::uint64_t parent);

  /// Live entry count (observability for leak tests).
  std::size_t count() const;

  /// Entry `id`'s p per-rank slots, indexed by rank. The span stays valid
  /// until release(id); distinct ranks may use their slots concurrently.
  /// A run looks up each entry it touches once, on the host at launch, so
  /// its ranks index their slots without taking the store's lock.
  std::span<la::Matrix> slots(std::uint64_t id);

  /// Rank `rank`'s slot of entry `id` (host callers; slots(id)[rank]).
  la::Matrix& local(std::uint64_t id, int rank);

  /// Monotonic write stamp of the entry (assigned at creation; entries
  /// are never rewritten in place): together with the id this identifies
  /// the CONTENT of a handle (a plan's replica of L-only state keys on it
  /// instead of hashing operand bytes).
  std::uint64_t epoch(std::uint64_t id) const;

  /// Mark an entry's contents untrustworthy — a faulted run may have left
  /// its slots partially rewritten. Bumps the epoch so every content-keyed
  /// state (a plan's replica) invalidates, and makes api-level reads
  /// fail fast until unpoison(). No-op for unknown ids.
  void poison(std::uint64_t id);
  bool poisoned(std::uint64_t id) const;
  /// Clear the poison flag after the owner rewrote every slot, stamping a
  /// fresh epoch for the new contents.
  void unpoison(std::uint64_t id);

  /// Bytes held by every entry's blocks (per last touch() accounting).
  std::uint64_t resident_bytes() const;

  /// Recompute the entry's byte accounting from its slots after a
  /// host-side (re)write. Call after filling slots (upload, repair) and
  /// after a run produced or rewrote the entry.
  void touch(std::uint64_t id);

  // --- Run-use marks ------------------------------------------------------
  // A run that reads or writes entries marks them in use for its whole
  // flight so two concurrent streams cannot move blocks out of one entry
  // at once.

  /// Atomically mark every id in use by one run, blocking until none of
  /// them is in use by another run (all-or-nothing, so concurrent
  /// acquirers cannot hold-and-wait into a deadlock). In-flight runs
  /// release on a worker thread at completion, so this always makes
  /// progress without the host waiting any ticket.
  void acquire_run_use(const std::vector<std::uint64_t>& ids);
  /// Release the marks taken by acquire_run_use (any thread).
  void release_run_use(const std::vector<std::uint64_t>& ids);
  /// Block until no in-flight run uses the entry (host-side reads:
  /// download/repair against a machine with concurrent streams).
  void wait_run_idle(std::uint64_t id) const;

 private:
  struct Entry {
    std::vector<la::Matrix> locals;
    std::uint64_t epoch = 0;
    bool poisoned = false;
    std::uint64_t bytes = 0;  // accounted at last touch()
    int busy = 0;  // in-flight runs using this entry
    std::uint64_t parent = 0;              // 0: attached to nothing
    std::vector<std::uint64_t> children;   // released with this entry
  };

  Entry& entry(std::uint64_t id) const;
  Entry* find(std::uint64_t id) const;  // mu_ held; null for unknown ids
  void release_locked(std::uint64_t id);

  int p_;
  mutable std::mutex mu_;
  mutable std::condition_variable busy_cv_;
  std::uint64_t next_id_ = 1;
  std::uint64_t writes_ = 0;
  std::uint64_t resident_bytes_ = 0;
  // unique_ptr values: entry addresses stay stable across map rehashes
  // and an entry's slots are never resized, so the slot spans a run
  // holds never dangle.
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_;
};

}  // namespace catrsm::sim
