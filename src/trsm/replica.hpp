#pragma once
// Record and replay of the state a solver derives from L alone. Each of
// an algorithm's L-only sites holds its block in a SiteBlock:
//  - rec_trsm: the column split's allgather of L and each base case's
//    gather of its diagonal block (paper Section IV, lines 1-4 and 6-9);
//  - it_inv_trsm: the Diagonal-Inverter's output, Ltilde (Section VI-A).
// A call against an empty Replica runs every site exactly as a call
// without one does and records the blocks; a later call against the same
// L replays them in call order and runs none of the sites' collectives or
// flops. X is bitwise the same either way.

#include <cstddef>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

/// This rank's blocks of L-only state, in the order the sites produce
/// them. The order is the same on every call with the same shape, grid and
/// options.
struct Replica {
  std::vector<la::Matrix> blocks;
  /// Set once a call has recorded every block; later calls replay.
  bool complete = false;
};

/// One solver call's pass over its replica (none: `replica` is null). The
/// call's sites claim blocks in order; finish() checks that the call
/// claimed every block and marks a recording complete.
struct ReplicaPass {
  explicit ReplicaPass(Replica* r)
      : replica(r), replay(r != nullptr && r->complete) {}

  void finish() {
    if (replica == nullptr) return;
    CATRSM_CHECK(next == replica->blocks.size(),
                 "replica: it was recorded from another L");
    replica->complete = true;
  }

  Replica* replica;
  bool replay;
  std::size_t next = 0;
};

/// The block of one L-only site, held in `home` for the site's scope. On a
/// replay the next replica block (shape-checked against rows x cols) is
/// moved in and the site computes nothing; otherwise the site fills
/// `home`. When the scope ends, unwinding included, the block moves back
/// to its slot: a recording keeps what the site computed, and a replay
/// leaves the replica whole for the next call.
class SiteBlock {
 public:
  SiteBlock(ReplicaPass& pass, la::Matrix& home, la::index_t rows,
            la::index_t cols)
      : pass_(pass), home_(home), slot_(pass.next++) {
    if (pass_.replica == nullptr) return;
    std::vector<la::Matrix>& blocks = pass_.replica->blocks;
    if (!pass_.replay) {
      blocks.emplace_back();
      return;
    }
    CATRSM_CHECK(slot_ < blocks.size() && blocks[slot_].rows() == rows &&
                     blocks[slot_].cols() == cols,
                 "replica: it was recorded from another L");
    home_ = std::move(blocks[slot_]);
  }
  ~SiteBlock() {
    if (pass_.replica != nullptr)
      pass_.replica->blocks[slot_] = std::move(home_);
  }
  SiteBlock(const SiteBlock&) = delete;
  SiteBlock& operator=(const SiteBlock&) = delete;

 private:
  ReplicaPass& pass_;
  la::Matrix& home_;
  std::size_t slot_;
};

}  // namespace catrsm::trsm
