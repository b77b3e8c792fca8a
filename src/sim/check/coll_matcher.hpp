#pragma once
// Dynamic collective-matching validator (sim/check subsystem).
//
// PARCOACH-style collective-correctness checking, done exactly instead of
// conservatively: the simulator sees every rank's actual calls, so each
// coll:: entry point registers (communicator epoch, op family, root,
// per-rank counts) with this per-run matcher, and the FIRST rank to
// diverge from its peers faults immediately — with both sides' records in
// the message — instead of producing a tag mismatch that blocks forever.
//
// Matching unit: the k-th collective call on a given communicator epoch.
// The epoch registry already guarantees all members of one epoch agree on
// the ordered member list, so a rank that builds a communicator with a
// *different* member list lands on a different epoch and can never be
// cross-matched; that mistake surfaces as a deadlock, and the matcher
// contributes each rank's last-collective context line to the deadlock
// dump so the dump shows the two disagreeing member lists side by side.
//
// The matcher performs no cost accounting and sends no messages, so
// modeled S/W/F are bit-identical with checking on or off. It is opt-in:
// Machine::set_collective_checking(true) or CATRSM_SIM_CHECK=1.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace catrsm::sim::check {

/// Thrown (on the offending rank) when two members of one communicator
/// disagree on the collective sequence; what() carries both records.
class CollMismatchError : public Error {
 public:
  explicit CollMismatchError(const std::string& what) : Error(what) {}
};

class CollectiveMatcher {
 public:
  explicit CollectiveMatcher(int p);

  /// Register world rank `world_rank` (communicator rank `comm_rank`)
  /// entering its next collective on epoch `epoch`. `counts` may be null
  /// (barrier); `words` is the rank's total payload. Validates against
  /// whatever a peer already registered for the same call slot and throws
  /// CollMismatchError on any disagreement.
  void enter(std::uint64_t epoch, const std::vector<int>& members,
             int world_rank, int comm_rank, int family, const char* name,
             int root, const std::vector<std::size_t>* counts,
             std::size_t words);

  /// One-line description of the rank's most recent collective entry
  /// (empty when it never entered one). Feeds the deadlock dump.
  std::string context_of(int world_rank) const;

 private:
  /// First entrant's record for one (epoch, sequence-number) call slot.
  struct Slot {
    int family = 0;
    std::string name;
    int root = -1;
    std::vector<std::size_t> counts;
    int first_rank = -1;  // world rank that created the record
    int entered = 0;      // members registered so far
  };
  struct EpochState {
    std::vector<int> members;
    std::vector<std::uint64_t> next_seq;  // per communicator rank
    std::map<std::uint64_t, Slot> slots;
  };

  mutable std::mutex mu_;
  std::map<std::uint64_t, EpochState> epochs_;
  std::vector<std::string> last_context_;  // per world rank
};

}  // namespace catrsm::sim::check
