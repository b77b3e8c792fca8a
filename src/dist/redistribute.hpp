#pragma once
// Generic layout transitions between arbitrary distributions, built on the
// personalized all-to-all (so every transition costs the paper's
// O(alpha log p + beta (words/2) log p) under the Bruck schedule).
//
// All routing is derived arithmetically from the two Distribution
// descriptors, and no size or index metadata beyond the all-to-all's own
// headers ever travels. Every transition here is separable — a
// destination row depends on one source index only — so the routing is
// derived once per local row, once per local column and once per (row
// part, column part) pair (owner_table), never once per element: packing
// and unpacking cost O(1) table lookups per element. Ranks outside either
// distribution's face still participate in the exchange (with empty
// payloads), so a matrix can move between disjoint rank subsets of a
// larger communicator.
//
// Wire contract: each sender's stream to each destination holds the
// elements it owns that land there, in ascending source (i, j) order
// (row-major over the source matrix), and each receiver consumes every
// source stream in that order. Payload bytes, trace hashes and fault
// coordinates depend on this order; the test
// Redistribute/WireOrder.MatchesElementwiseReference in tests/test_dist.cpp
// pins it against an elementwise reference.

#include <memory>
#include <vector>

#include "dist/dist_matrix.hpp"

namespace catrsm::dist {

/// The comm rank owning each (row part, column part) of `d`, row part
/// major: entry rp * d.col_parts() + cp. Throws, naming `who`, when an
/// owner lies outside `comm`.
std::vector<int> owner_table(const Distribution& d, const sim::Comm& comm,
                             const char* who);

/// Move `src` into layout `dst` (same global shape). Collective over
/// `comm`, which must contain every rank of both faces.
DistMatrix redistribute(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm);

/// The transpose of `src` under `dst` (dst must be cols x rows of src).
DistMatrix transpose(const DistMatrix& src,
                     std::shared_ptr<const Distribution> dst,
                     const sim::Comm& comm);

/// Row-reversed copy J * src under `dst` (same shape): element (i, j)
/// moves to (rows - 1 - i, j).
DistMatrix reverse_rows(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm);

/// Fully reversed copy J * src * J under `dst` (same shape).
DistMatrix reverse_both(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm);

/// Materialize the full global matrix on EVERY rank of `comm` (allgather).
la::Matrix collect(const DistMatrix& m, const sim::Comm& comm);

/// Assemble the sub-block [rlo, rhi) x [clo, chi) on every rank of `comm`
/// from the members' pieces, reading element values from `local` (a
/// working copy that may have evolved past the DistMatrix that defined the
/// layout). Elements owned by no member of `comm` are left zero.
la::Matrix gather_region(const Distribution& d, const la::Matrix& local,
                         int me, const sim::Comm& comm, index_t rlo,
                         index_t rhi, index_t clo, index_t chi);

/// Purely local re-indexing of the sub-block [i0, i0+rows) x [j0, j0+cols)
/// of a unit-block cyclic matrix: the result is cyclic on the same face
/// with shifted source parts, and every rank keeps exactly its own
/// elements (no communication).
DistMatrix cyclic_subblock(const DistMatrix& m, index_t i0, index_t j0,
                           index_t rows, index_t cols);

/// Inverse of cyclic_subblock: write `sub`'s elements back into `m` at
/// offset (i0, j0). Purely local.
void set_cyclic_subblock(DistMatrix& m, index_t i0, index_t j0,
                         const DistMatrix& sub);

}  // namespace catrsm::dist
