#pragma once
// Collective communication on the simulated machine (paper Section II-C1).
//
// Every routine reproduces the cost signature the paper assumes:
//
//   allgather(n, p):       alpha * ceil(log p) + beta * n(1 - 1/p)
//   scatter/gather(n, p):  alpha * ceil(log p) + beta * n(1 - 1/p)
//   reduce-scatter(n, p):  alpha * ceil(log p) + (beta + gamma) * n(1 - 1/p)
//   bcast(n, p):           alpha * 2 ceil(log p) + beta * 2n
//   reduce/allreduce(n,p): alpha * 2 ceil(log p) + (2 beta + gamma) * n
//   barrier(p):            alpha * ceil(log p)
//
// built exactly the way the paper builds them (Chan et al.): bcast =
// scatter + allgather, reduce = reduce-scatter + gather, allreduce =
// reduce-scatter + allgather. Butterfly (recursive doubling / halving)
// algorithms are used for powers of two; Bruck-style and fold-to-power-of-
// two generalizations keep the same asymptotic cost for any group size.
//
// Payloads are zero-copy sim::Buffer views: chunking a payload (scatter,
// Bruck windows, halving segments) slices the slab instead of
// re-materializing per-block vectors, and a block that is merely forwarded
// travels as a refcount bump. Inputs accept anything a Buffer converts
// from — pass std::vector rvalues to adopt storage, spans to copy once at
// the boundary.
//
// All counts are expressed in words (doubles). Contribution sizes per rank
// are passed explicitly by the caller — in this library they are always
// derivable from a distribution descriptor, so no size-exchange round is
// ever needed (matching the paper's cost accounting).

#include <cstddef>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/comm.hpp"

namespace catrsm::coll {

using sim::Buffer;
/// Scratch type for assembling contributions at call sites; moves into a
/// Buffer (zero-copy adoption) at the collective boundary.
using Buf = std::vector<double>;
using Counts = std::vector<std::size_t>;

/// Collective families, used to derive per-communicator message tags.
/// Trace events number collectives in this order, so a new family goes
/// at the end. kAlltoallBruck is coll::alltoallv (alltoall.hpp).
enum class CollOp : int {
  kAllgather = 0,
  kReduceScatter,
  kScatter,
  kGather,
  kBarrier,
  kAlltoallBruck,
};

/// Display name of a collective family ("allgather", "alltoall(bruck)",
/// ...): the one name table behind the collective matcher's records and
/// the deadlock dump's tag decoding. "collective?" for any other value.
const char* coll_op_name(CollOp op);

/// Collective tags occupy [kTagBase, ...); user point-to-point code must
/// use tags below kTagBase.
inline constexpr int kTagBase = 1 << 20;
/// Tag slots per collective family, indexed by the communicator epoch.
/// Epochs are sequential registry ids, so collisions require 2^24
/// distinct communicators on one machine (they then wrap).
inline constexpr int kEpochSpace = 1 << 24;

/// The message tag of collective family `op` on `comm`: op selects a tag
/// band, the communicator epoch a slot within it. Collectives running
/// concurrently on overlapping subgroups (nested groups, crossing row and
/// column fibers) therefore never cross-match messages, even when a rank
/// pair belongs to both groups and the groups progress out of lockstep.
int coll_tag(CollOp op, const sim::Comm& comm);

/// Split `total` words into `parts` near-equal chunk sizes (used by bcast /
/// reduce / allreduce to pick their internal scatter granularity).
Counts even_counts(std::size_t total, int parts);

/// Bruck all-gather. `mine` holds this rank's contribution of size
/// counts[comm.rank()]; returns all contributions concatenated in
/// communicator rank order. Works for any group size.
Buffer allgather(const sim::Comm& comm, Buffer mine, const Counts& counts);

/// All contributions have equal size; convenience wrapper.
Buffer allgather_equal(const sim::Comm& comm, Buffer mine);

/// Recursive-halving reduce-scatter. `full` holds this rank's addend for the
/// entire vector (sum of counts words); returns the elementwise sum of the
/// counts[comm.rank()] segment owned by this rank. Non-power-of-two groups
/// fold down to the nearest power of two first.
Buffer reduce_scatter(const sim::Comm& comm, Buffer full, const Counts& counts);

/// Binomial scatter from `root`. At the root, `all` holds the destination
/// blocks concatenated in communicator rank order (sum of counts words);
/// elsewhere it is ignored. Returns this rank's counts[rank] block (a view
/// of the incoming payload — or of `all` itself at the root).
Buffer scatter(const sim::Comm& comm, int root, Buffer all,
               const Counts& counts);

/// Binomial gather to `root`: inverse of scatter. Returns the concatenation
/// at the root, an empty buffer elsewhere.
Buffer gather(const sim::Comm& comm, int root, Buffer mine,
              const Counts& counts);

/// Broadcast `count` words from `root` (scatter + allgather). Non-roots
/// pass an empty buffer; `count` must be known at every rank.
Buffer bcast(const sim::Comm& comm, int root, Buffer data, std::size_t count);

/// Reduction to `root` (reduce-scatter + gather): every rank contributes a
/// full-length addend; root receives the elementwise sum, others empty.
Buffer reduce(const sim::Comm& comm, int root, Buffer full);

/// All-reduction (reduce-scatter + allgather): elementwise sum on all ranks.
Buffer allreduce(const sim::Comm& comm, Buffer full);

/// Dissemination barrier: ceil(log p) empty exchange rounds.
void barrier(const sim::Comm& comm);

}  // namespace catrsm::coll
