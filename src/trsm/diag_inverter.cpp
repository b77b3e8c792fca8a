#include "trsm/diag_inverter.hpp"

#include <algorithm>
#include <utility>

#include "coll/alltoall.hpp"
#include "dist/redistribute.hpp"
#include "trsm/tri_inv_dist.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

using dist::BlockCyclicDist;
using dist::Face2D;

namespace {

struct BlockHome {
  index_t offset = 0;  // global index of the block's top-left corner
  index_t size = 0;
  std::shared_ptr<BlockCyclicDist> dist;  // cyclic layout on its subgrid
  std::vector<int> owner;  // comm rank of each part of `dist`
};

/// Calls fn(r, c, t) for every element (r, c) of L's local block (global
/// indices `rows` x `cols`) inside `home`'s diagonal block, row-major,
/// where t is the comm rank holding that element on the block's subgrid.
template <class Fn>
void for_each_in_block(const std::vector<index_t>& rows,
                       const std::vector<index_t>& cols,
                       const BlockHome& home, Fn&& fn) {
  const auto window = [&](const std::vector<index_t>& v) {
    const auto lo = std::lower_bound(v.begin(), v.end(), home.offset);
    const auto hi = std::lower_bound(lo, v.end(), home.offset + home.size);
    return std::pair<index_t, index_t>{lo - v.begin(), hi - v.begin()};
  };
  const auto [r_lo, r_hi] = window(rows);
  const auto [c_lo, c_hi] = window(cols);
  const dist::Distribution& hd = *home.dist;
  std::vector<int> col_part(static_cast<std::size_t>(c_hi - c_lo));
  for (index_t c = c_lo; c < c_hi; ++c)
    col_part[static_cast<std::size_t>(c - c_lo)] =
        hd.part_of_col(cols[static_cast<std::size_t>(c)] - home.offset);
  for (index_t r = r_lo; r < r_hi; ++r) {
    const int* owner_row = &home.owner[static_cast<std::size_t>(
        hd.part_of_row(rows[static_cast<std::size_t>(r)] - home.offset) *
        hd.col_parts())];
    for (index_t c = c_lo; c < c_hi; ++c)
      fn(r, c, owner_row[col_part[static_cast<std::size_t>(c - c_lo)]]);
  }
}

/// Calls fn(r, c, t) for every element (r, c) of `block`'s local block,
/// row-major, where `block` is `home`'s diagonal block on its subgrid and
/// t is the comm rank holding that element in L's layout `ld` (whose
/// owner table is `l_owner`).
template <class Fn>
void for_each_of_block(const DistMatrix& block, const BlockHome& home,
                       const dist::Distribution& ld,
                       const std::vector<int>& l_owner, Fn&& fn) {
  const auto& rows = block.my_rows();
  const auto& cols = block.my_cols();
  std::vector<int> col_part(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c)
    col_part[c] = ld.part_of_col(home.offset + cols[c]);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const int* owner_row = &l_owner[static_cast<std::size_t>(
        ld.part_of_row(home.offset + rows[r]) * ld.col_parts())];
    for (std::size_t c = 0; c < cols.size(); ++c)
      fn(static_cast<index_t>(r), static_cast<index_t>(c),
         owner_row[col_part[c]]);
  }
}

}  // namespace

DistMatrix diag_inverter(const DistMatrix& l, const sim::Comm& comm,
                         int nblocks) {
  const auto* ld = dynamic_cast<const BlockCyclicDist*>(&l.dist());
  CATRSM_CHECK(ld != nullptr && ld->br() == 1 && ld->bc() == 1,
               "diag_inverter: requires a unit-block cyclic layout");
  const index_t n = l.dist().rows();
  CATRSM_CHECK(l.dist().cols() == n, "diag_inverter: matrix must be square");
  const int p = comm.size();
  CATRSM_CHECK(nblocks >= 1, "diag_inverter: need at least one block");
  auto& ctx = comm.ctx();
  const int me = ctx.id();

  const index_t nb = ceil_div(n, nblocks);
  // When nblocks <= p every block gets its own subgrid of q ranks; with
  // more blocks than ranks, subgrids take several blocks and invert them
  // sequentially (block b lives on group b mod ngroups).
  const int ngroups = std::min(nblocks, p);
  const int q = p / ngroups;  // ranks per block subgrid

  // Describe every block's home subgrid (pure arithmetic on all ranks).
  std::vector<BlockHome> homes(static_cast<std::size_t>(nblocks));
  for (int b = 0; b < nblocks; ++b) {
    auto& home = homes[static_cast<std::size_t>(b)];
    home.offset = static_cast<index_t>(b) * nb;
    home.size = std::min(nb, n - home.offset);
    const int group = b % ngroups;
    std::vector<int> members;
    members.reserve(static_cast<std::size_t>(q));
    for (int r = 0; r < q; ++r)
      members.push_back(comm.world_rank(group * q + r));
    const auto [sr, sc] = dist::balanced_factors(q);
    Face2D subface(sim::Comm(ctx, members), sr, sc);
    home.dist = std::make_shared<BlockCyclicDist>(subface, home.size,
                                                  home.size, 1, 1);
    home.owner = dist::owner_table(*home.dist, comm, "diag_inverter");
  }
  const std::vector<int> l_owner =
      dist::owner_table(l.dist(), comm, "diag_inverter");
  const int my_group = comm.rank() < ngroups * q ? comm.rank() / q : -1;
  std::vector<int> my_blocks;
  if (my_group >= 0)
    for (int b = my_group; b < nblocks; b += ngroups) my_blocks.push_back(b);

  // --- Phase 1: one personalized all-to-all ships every diagonal block to
  // its subgrid (paper lines 6 and 9 fused).
  std::vector<coll::Buf> outgoing(static_cast<std::size_t>(p));
  if (l.participates())
    for (const BlockHome& home : homes)
      for_each_in_block(l.my_rows(), l.my_cols(), home,
                        [&](index_t r, index_t c, int t) {
                          outgoing[static_cast<std::size_t>(t)].push_back(
                              l.local()(r, c));
                        });
  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing));

  std::vector<DistMatrix> my_block_mats;
  {
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (const int b : my_blocks) {
      const BlockHome& home = homes[static_cast<std::size_t>(b)];
      DistMatrix mat(home.dist, me);
      for_each_of_block(
          mat, home, l.dist(), l_owner, [&](index_t r, index_t c, int s) {
            auto& cur = cursor[static_cast<std::size_t>(s)];
            CATRSM_ASSERT(cur < incoming[static_cast<std::size_t>(s)].size(),
                          "diag_inverter: short scatter stream");
            mat.local()(r, c) = incoming[static_cast<std::size_t>(s)][cur++];
          });
      my_block_mats.push_back(std::move(mat));
    }
  }

  // --- Phase 2: all subgrids invert their blocks concurrently (several
  // blocks per subgrid invert back-to-back when nblocks > p).
  std::vector<DistMatrix> my_invs;
  for (std::size_t i = 0; i < my_blocks.size(); ++i) {
    const BlockHome& home =
        homes[static_cast<std::size_t>(my_blocks[i])];
    sim::Comm subcomm = home.dist->face().comm();
    my_invs.push_back(tri_inv_dist(my_block_mats[i], subcomm));
  }

  // --- Phase 3: one all-to-all returns the inverted blocks (paper lines
  // 16 and 17 fused); the result is L with its diagonal blocks replaced.
  std::vector<coll::Buf> back_out(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < my_blocks.size(); ++i) {
    const DistMatrix& my_inv = my_invs[i];
    for_each_of_block(my_inv, homes[static_cast<std::size_t>(my_blocks[i])],
                      l.dist(), l_owner, [&](index_t r, index_t c, int t) {
                        back_out[static_cast<std::size_t>(t)].push_back(
                            my_inv.local()(r, c));
                      });
  }
  std::vector<coll::Buffer> back_in =
      coll::alltoallv(comm, std::move(back_out));

  DistMatrix ltilde = l;  // off-diagonal panels stay as in L
  if (ltilde.participates()) {
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (const BlockHome& home : homes)
      for_each_in_block(
          ltilde.my_rows(), ltilde.my_cols(), home,
          [&](index_t r, index_t c, int s) {
            auto& cur = cursor[static_cast<std::size_t>(s)];
            CATRSM_ASSERT(cur < back_in[static_cast<std::size_t>(s)].size(),
                          "diag_inverter: short gather stream");
            ltilde.local()(r, c) = back_in[static_cast<std::size_t>(s)][cur++];
          });
  }
  return ltilde;
}

}  // namespace catrsm::trsm
