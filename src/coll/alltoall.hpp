#pragma once
// Personalized all-to-all exchange, the primitive behind every layout
// transition (transposes, cyclic <-> blocked redistributions, grid
// reshapes) in the TRSM algorithms.
//
// The schedule is Bruck's: ceil(log g) rounds, each datum travels up to
// log g hops, so S = O(log g), W = O(total * log g / 2) — the cost the
// paper quotes for a layout transition, T = alpha log p + beta (n/2) log p.
//
// Payload sizes may differ per (src, dst) pair and need not be globally
// known: in-flight blocks carry a tiny routing header (counted as words —
// the implementation pays its real overhead).

#include <vector>

#include "coll/collectives.hpp"
#include "sim/buffer.hpp"
#include "sim/comm.hpp"

namespace catrsm::coll {

/// `to_send[d]` is the payload for communicator rank d (slot rank() is
/// forwarded through locally). Returns `from[s]` = payload sent by rank s.
std::vector<Buffer> alltoallv(const sim::Comm& comm,
                              std::vector<Buffer> to_send);

/// Scratch-vector convenience overload: adopts each per-destination vector
/// into a Buffer without copying.
std::vector<Buffer> alltoallv(const sim::Comm& comm, std::vector<Buf> to_send);

}  // namespace catrsm::coll
