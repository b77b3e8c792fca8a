#pragma once
// The paper's Section IV: recursive TRSM (adapted from Elmroth et al.) with
// the paper's complete alpha-beta-gamma cost structure. This is the
// "standard" algorithm of the Section IX comparison table.
//
// Structure:
//  - pc > pr (more columns of B than rows of L warrant): split the grid
//    into pc/pr square subgrids, replicate L into each (allgather over the
//    column-group fibers, paper line 3) and solve independent column
//    subsets of B.
//  - square grid, n > n0: halve L:
//        X1 = RecTRSM(L11, B1)
//        B2' = B2 - L21 * X1        (one 3D matrix multiplication)
//        X2 = RecTRSM(L22, B2')
//  - base case: gather L onto every rank, split B's columns across all p
//    ranks (all-to-all), solve locally, return to the cyclic layout.
//
// Two of these collectives read only L: the column split's allgather
// (with the assembly of each subgrid's block) and each base case's gather
// of its diagonal block. They are often most of the algorithm's words
// (86% at p = 4, n = 1024, k = 256; all of them at p = 8, n = 16,
// k = 512). Each is a site of a trsm::Replica (replica.hpp): a call
// against an empty replica runs them exactly as a call without one does
// and records the blocks, and a later call against the same L replays
// them and sends nothing for L. Their charges carry the "replication"
// phase, so a replaying call shows none.
//
// Costs by regime (paper Section IV-A):
//   1D (n <  k/p):      O(alpha log p + beta n^2 + gamma n^2 k / p)
//   2D (n >  k sqrt p): O(alpha sqrt p + beta nk log p / sqrt p + gamma n^2 k / p)
//   3D (in between):    O(alpha (np/k)^{2/3} log p + beta (n^2 k/p)^{2/3}
//                         + gamma n^2 k / p)

#include "dist/dist_matrix.hpp"
#include "sim/comm.hpp"
#include "trsm/replica.hpp"

namespace catrsm::trsm {

using dist::DistMatrix;
using la::index_t;

struct RecTrsmOptions {
  /// Base-case size; 0 = automatic (the paper's regime-dependent n0).
  index_t n0 = 0;
};

/// Automatic base-case size per Section IV-A for an n x k solve on p ranks
/// arranged pr x pc.
index_t rec_trsm_auto_n0(index_t n, index_t k, int pr, int pc);

/// Solve L X = B. `l` is n x n lower-triangular, cyclic (unit blocks) on a
/// pr x pc face; `b` is n x k cyclic on the same face; pr must divide pc.
/// Returns X cyclic on the same face. With a `replica`, an incomplete one
/// records, in call order, the assembled subgrid block of each column
/// split and the full copy of each base case's diagonal block, and a
/// complete one replays them in place of those collectives; the caller
/// guarantees it was recorded from this L. X is bitwise the same either
/// way.
DistMatrix rec_trsm(const DistMatrix& l, const DistMatrix& b,
                    const sim::Comm& comm, RecTrsmOptions opts = {},
                    Replica* replica = nullptr);

}  // namespace catrsm::trsm
