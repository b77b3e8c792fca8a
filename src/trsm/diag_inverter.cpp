#include "trsm/diag_inverter.hpp"

#include <algorithm>

#include "coll/alltoall.hpp"
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
};

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
  }
  const int my_group = comm.rank() < ngroups * q ? comm.rank() / q : -1;
  std::vector<int> my_blocks;
  if (my_group >= 0)
    for (int b = my_group; b < nblocks; b += ngroups) my_blocks.push_back(b);

  // --- Phase 1: one personalized all-to-all ships every diagonal block to
  // its subgrid (paper lines 6 and 9 fused).
  std::vector<coll::Buf> outgoing(static_cast<std::size_t>(p));
  if (l.participates()) {
    const auto& rows = l.my_rows();
    const auto& cols = l.my_cols();
    for (const BlockHome& home : homes) {
      const auto r_lo = std::lower_bound(rows.begin(), rows.end(),
                                         home.offset) -
                        rows.begin();
      const auto r_hi = std::lower_bound(rows.begin(), rows.end(),
                                         home.offset + home.size) -
                        rows.begin();
      const auto c_lo = std::lower_bound(cols.begin(), cols.end(),
                                         home.offset) -
                        cols.begin();
      const auto c_hi = std::lower_bound(cols.begin(), cols.end(),
                                         home.offset + home.size) -
                        cols.begin();
      for (auto r = r_lo; r < r_hi; ++r) {
        const index_t bi = rows[static_cast<std::size_t>(r)] - home.offset;
        const int rp = home.dist->part_of_row(bi);
        for (auto c = c_lo; c < c_hi; ++c) {
          const index_t bj = cols[static_cast<std::size_t>(c)] - home.offset;
          const int w = home.dist->world_rank_of(rp, home.dist->part_of_col(bj));
          const int t = comm.index_of_world(w);
          outgoing[static_cast<std::size_t>(t)].push_back(
              l.local()(static_cast<index_t>(r), static_cast<index_t>(c)));
        }
      }
    }
  }
  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing));

  std::vector<DistMatrix> my_block_mats;
  {
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (const int b : my_blocks) {
      const BlockHome& home = homes[static_cast<std::size_t>(b)];
      DistMatrix mat(home.dist, me);
      if (mat.participates()) {
        const auto& rows = mat.my_rows();
        const auto& cols = mat.my_cols();
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const int sp = l.dist().part_of_row(home.offset + rows[r]);
          for (std::size_t c = 0; c < cols.size(); ++c) {
            const int w = l.dist().world_rank_of(
                sp, l.dist().part_of_col(home.offset + cols[c]));
            const int s = comm.index_of_world(w);
            auto& cur = cursor[static_cast<std::size_t>(s)];
            CATRSM_ASSERT(cur < incoming[static_cast<std::size_t>(s)].size(),
                          "diag_inverter: short scatter stream");
            mat.local()(static_cast<index_t>(r), static_cast<index_t>(c)) =
                incoming[static_cast<std::size_t>(s)][cur++];
          }
        }
      }
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
    if (!my_inv.participates()) continue;
    const BlockHome& home = homes[static_cast<std::size_t>(my_blocks[i])];
    const auto& rows = my_inv.my_rows();
    const auto& cols = my_inv.my_cols();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const int dp = l.dist().part_of_row(home.offset + rows[r]);
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const int w =
            l.dist().world_rank_of(dp, l.dist().part_of_col(home.offset +
                                                            cols[c]));
        const int t = comm.index_of_world(w);
        back_out[static_cast<std::size_t>(t)].push_back(
            my_inv.local()(static_cast<index_t>(r), static_cast<index_t>(c)));
      }
    }
  }
  std::vector<coll::Buffer> back_in =
      coll::alltoallv(comm, std::move(back_out));

  DistMatrix ltilde = l;  // off-diagonal panels stay as in L
  if (ltilde.participates()) {
    const auto& rows = ltilde.my_rows();
    const auto& cols = ltilde.my_cols();
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (const BlockHome& home : homes) {
      const auto r_lo = std::lower_bound(rows.begin(), rows.end(),
                                         home.offset) -
                        rows.begin();
      const auto r_hi = std::lower_bound(rows.begin(), rows.end(),
                                         home.offset + home.size) -
                        rows.begin();
      const auto c_lo = std::lower_bound(cols.begin(), cols.end(),
                                         home.offset) -
                        cols.begin();
      const auto c_hi = std::lower_bound(cols.begin(), cols.end(),
                                         home.offset + home.size) -
                        cols.begin();
      for (auto r = r_lo; r < r_hi; ++r) {
        const index_t bi = rows[static_cast<std::size_t>(r)] - home.offset;
        const int rp = home.dist->part_of_row(bi);
        for (auto c = c_lo; c < c_hi; ++c) {
          const index_t bj = cols[static_cast<std::size_t>(c)] - home.offset;
          const int w =
              home.dist->world_rank_of(rp, home.dist->part_of_col(bj));
          const int s = comm.index_of_world(w);
          auto& cur = cursor[static_cast<std::size_t>(s)];
          CATRSM_ASSERT(cur < back_in[static_cast<std::size_t>(s)].size(),
                        "diag_inverter: short gather stream");
          ltilde.local()(static_cast<index_t>(r), static_cast<index_t>(c)) =
              back_in[static_cast<std::size_t>(s)][cur++];
        }
      }
    }
  }
  return ltilde;
}

}  // namespace catrsm::trsm
