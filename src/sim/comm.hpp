#pragma once
// Communicator: an ordered subgroup of simulated ranks, analogous to an MPI
// communicator. Creating a subgroup is free of communication — processor
// grids know the membership of every fiber arithmetically, so all members
// construct the same group locally (the MPI_Group / MPI_Comm_create_group
// pattern rather than MPI_Comm_split).

#include <cstdint>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/machine.hpp"

namespace catrsm::sim {

class Comm {
 public:
  /// Group over explicit world ranks, ordered. The constructing rank need
  /// NOT be a member: non-members may hold a Comm purely to *describe* a
  /// group (e.g. a distribution layout over other ranks), but any attempt
  /// to communicate through it throws.
  Comm(Rank& rank, std::vector<int> members);

  /// True when the constructing rank belongs to the group.
  bool is_member() const { return my_index_ >= 0; }

  /// The full machine as a communicator.
  static Comm world(Rank& rank);

  /// Describe-only communicator with NO attached rank: pure membership,
  /// usable outside a simulated run (host-side layout realization for
  /// resident operands). Any communication attempt throws; subset() of a
  /// describe-only comm is again describe-only.
  static Comm describe(std::vector<int> members);

  /// My index within this communicator (throws for non-members).
  int rank() const;
  /// Number of members.
  int size() const { return static_cast<int>(members_.size()); }
  /// Translate a communicator rank to a world rank.
  int world_rank(int r) const;
  /// The ordered world-rank member list.
  const std::vector<int>& members() const { return members_; }
  /// Inverse translation; returns -1 when `w` is not a member.
  int index_of_world(int w) const;
  /// The underlying simulated rank context (throws for describe-only
  /// communicators, which have none).
  Rank& ctx() const {
    CATRSM_CHECK(rank_ != nullptr, "ctx: describe-only communicator");
    return *rank_;
  }

  /// Identity of this group: a sequential id from the machine's epoch
  /// registry, identical on every member (the registry keys on the
  /// ordered member list) and never shared by two distinct groups.
  /// Collectives fold it into their message tags so that collectives
  /// running concurrently on overlapping subgroups (e.g. a row fiber and
  /// a column fiber sharing one rank, or a subgroup nested in its
  /// parent) never cross-match each other's messages.
  std::uint64_t epoch() const { return epoch_; }

  /// Point-to-point within the group (ranks are communicator-relative).
  /// Payloads are zero-copy sim::Buffer views; spans and vectors convert
  /// at the call site (vector rvalues adopt their storage without a copy).
  void send(int dst, Buffer data, int tag) const;
  Buffer recv(int src, int tag) const;
  Buffer sendrecv(int peer, Buffer data, int tag) const;
  Buffer shift(int dst, int src, Buffer data, int tag) const;

  /// Subgroup from communicator-relative indices (must include my rank).
  Comm subset(const std::vector<int>& indices) const;

  /// Subgroup of every member whose index is congruent to mine modulo
  /// `stride` (a strided fiber; used for grid axes).
  Comm strided_fiber(int stride) const;

  /// Contiguous subgroup [begin, begin + count) that contains my rank.
  Comm range(int begin, int count) const;

 private:
  Comm() = default;  // describe-only construction

  Rank* rank_ = nullptr;
  std::vector<int> members_;
  int my_index_ = -1;
  std::uint64_t epoch_ = 0;
};

/// FNV-1a over an ordered member list. It depends on the members alone,
/// unlike an epoch, which the registry hands out in the order threads
/// first look a group up.
inline std::uint64_t members_hash(const std::vector<int>& members) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const int m : members) {
    h ^= static_cast<std::uint32_t>(m);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace catrsm::sim
