#pragma once
// The paper's Section VI-A: Diagonal-Inverter. Invert the n/n0 triangular
// blocks along the diagonal of L, each on its own r1 x r1 x r2 subgrid of
// p * n0/n ranks, all in parallel.
//
// All blocks travel to their subgrids in ONE personalized all-to-all (and
// back in one more), so the layout transitions cost O(alpha log p +
// beta (n n0 / p) log p) — the paper's lines 6/9/16/17 — and the inversions
// themselves add only O(log^2 (p n0 / n)) latency. The returned matrix
// equals L with every diagonal block replaced by its inverse, which is
// exactly the operand shape the iterative solver consumes.

#include <vector>

#include "dist/dist_matrix.hpp"
#include "sim/comm.hpp"

namespace catrsm::trsm {

using dist::DistMatrix;
using la::index_t;

/// `l` is n x n lower-triangular, cyclic (unit blocks) on a face over
/// `comm`; `nblocks` diagonal blocks of size ceil(n / nblocks) are
/// inverted. nblocks must be <= comm.size() and the assignment gives each
/// block floor(p / nblocks) ranks. Returns L with inverted diagonal blocks,
/// same distribution as `l`.
DistMatrix diag_inverter(const DistMatrix& l, const sim::Comm& comm,
                         int nblocks);

}  // namespace catrsm::trsm
