#include "trsm/it_inv_trsm.hpp"

#include <algorithm>
#include <cstring>

#include "coll/collectives.hpp"
#include "dist/grid.hpp"
#include "la/gemm.hpp"
#include "la/kernel/kernel.hpp"
#include "model/tuning.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

using dist::BlockCyclicDist;
using dist::Face2D;
using dist::ProcGrid3D;
using la::Matrix;

namespace {

enum ItTag : int {
  kTagXExchange = 901,
  kTagCorrExchange = 902,
  kTagBExchange = 903,
};

/// Local index range [t0, t1) of global rows in [lo, hi) within the sorted
/// list {res, res + mod, res + 2 mod, ...}.
std::pair<index_t, index_t> local_range(index_t lo, index_t hi, int res,
                                        int mod) {
  const auto first_at_least = [&](index_t bound) {
    if (bound <= res) return static_cast<index_t>(0);
    return ceil_div(bound - res, mod);
  };
  return {first_at_least(lo), first_at_least(hi)};
}

/// Number of globals in [0, n) congruent to res (mod m).
index_t strided_count(index_t n, int m, int res) {
  if (res >= n) return 0;
  return (n - res - 1) / m + 1;
}

/// A received payload viewed as a frozen row-major rows x cols panel.
/// The data stays on the transport slab — no to_vector copy; every
/// consumer below only reads, so the view is all that is needed.
struct Panel {
  sim::Buffer buf;
  index_t rows = 0;
  index_t cols = 0;
  const double* ptr() const { return buf.data(); }
};

}  // namespace

Face2D it_inv_l_face(const sim::Comm& comm, int p1, int p2) {
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_l_face: comm must hold the whole grid");
  std::vector<int> idx(static_cast<std::size_t>(p1 * p1));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  return Face2D(comm.subset(idx), p1, p1);
}

std::vector<int> it_inv_b_face_members(int p1, int p2) {
  std::vector<int> idx;
  idx.reserve(static_cast<std::size_t>(p1 * p2));
  for (int z = 0; z < p2; ++z)
    for (int x = 0; x < p1; ++x) idx.push_back(x + p1 * p1 * z);
  return idx;
}

Face2D it_inv_b_face(const sim::Comm& comm, int p1, int p2) {
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_b_face: comm must hold the whole grid");
  return Face2D(comm.subset(it_inv_b_face_members(p1, p2)), p1, p2);
}

std::shared_ptr<BlockCyclicDist> it_inv_b_dist(const sim::Comm& comm, int p1,
                                               int p2, index_t n, index_t k) {
  return dist::row_cyclic_col_blocked(it_inv_b_face(comm, p1, p2), n, k);
}

namespace {

/// The block count the inversion and the solve run with: `nblocks`
/// (0 = automatic, model::it_inv_nblocks) as the ragged blocks of
/// ceil(n / nblocks) rows actually tile n.
int it_inv_block_count(index_t n, index_t k, int p, int nblocks) {
  if (nblocks <= 0) nblocks = model::it_inv_nblocks(n, k, p);
  // Recompute the real block count for ragged sizes.
  return static_cast<int>(ceil_div(n, ceil_div(n, nblocks)));
}

/// The Section VI-B solve loop: X = L^-1 B from Ltilde, the
/// Diagonal-Inverter's output for `nblocks` blocks (a count
/// it_inv_block_count returned). Reads nothing of L itself.
DistMatrix it_inv_solve(const DistMatrix& ltilde, const DistMatrix& b,
                        const sim::Comm& comm, int p1, int p2, int nblocks) {
  const index_t n = ltilde.dist().rows();
  const index_t k = b.dist().cols();
  CATRSM_CHECK(ltilde.dist().cols() == n, "it_inv_trsm: L must be square");
  CATRSM_CHECK(b.dist().rows() == n, "it_inv_trsm: dimension mismatch");
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_trsm: comm must equal p1^2 * p2 ranks");

  const ProcGrid3D grid(comm, p1, p2);
  const int x = grid.my_x();
  const int y = grid.my_y();
  const int z = grid.my_z();
  auto& ctx = comm.ctx();

  const index_t nb = ceil_div(n, nblocks);

  // --- Panel geometry.
  const index_t bc = std::max<index_t>(ceil_div(k, p2), 1);
  const index_t kz = std::clamp<index_t>(k - static_cast<index_t>(z) * bc, 0,
                                         bc);
  const index_t rows_x = strided_count(n, p1, x);
  const index_t rows_y = strided_count(n, p1, y);

  const sim::Comm yf = grid.y_fiber();
  const sim::Comm zf = grid.z_fiber();
  const int peer = grid.at(y, x, z);  // transpose partner

  // Ship a frozen payload to the transpose partner and view the reply in
  // place: sends are refcount bumps and the received panel is never
  // copied off its slab (the consumers below only read it).
  auto transpose_exchange = [&](sim::Buffer mine, index_t my_rows,
                                index_t peer_rows, int tag) -> Panel {
    if (x == y) return Panel{std::move(mine), my_rows, kz};
    sim::Buffer got = comm.sendrecv(peer, std::move(mine), tag);
    CATRSM_ASSERT(static_cast<index_t>(got.size()) == peer_rows * kz,
                  "it_inv_trsm: exchange size mismatch");
    return Panel{std::move(got), peer_rows, kz};
  };

  // --- Replicate B over the y-fibers, then transpose so every rank holds
  // the rows congruent to its own y (the contraction-ready orientation).
  // by_panel is corrected in place each iteration, so it is the one
  // received panel that gets materialized into owned storage.
  Matrix by_panel(rows_y, kz);
  {
    sim::PhaseScope scope(ctx, "setup");
    coll::Buffer mine = b.participates() ? coll::Buffer(b.local().data())
                                         : coll::Buffer();
    coll::Buffer bx = coll::bcast(yf, /*root=*/0, std::move(mine),
                                  static_cast<std::size_t>(rows_x * kz));
    const Panel byp = transpose_exchange(std::move(bx), rows_x, rows_y,
                                         kTagBExchange);
    CATRSM_ASSERT(byp.rows == rows_y, "it_inv_trsm: B panel shape mismatch");
    // A rank that owns no rows holds no storage (null data) to copy.
    if (rows_y * kz > 0)
      std::memcpy(by_panel.ptr(), byp.ptr(),
                  static_cast<std::size_t>(rows_y * kz) * sizeof(double));
  }

  Matrix x_panel(rows_x, kz);
  Matrix u_buffer(rows_x, kz);  // lazily accumulated updates, rows ≡ x

  // Extract a (row-range x col-range) piece of my ltilde block and
  // broadcast it along the z-fiber (only z = 0 holds ltilde); the piece
  // is packed straight onto a pooled slab and consumed as a view.
  auto bcast_piece = [&](index_t rlo, index_t rhi, index_t clo,
                         index_t chi) -> Panel {
    const auto [rx0, rx1] = local_range(rlo, rhi, x, p1);
    const auto [cy0, cy1] = local_range(clo, chi, y, p1);
    const index_t pr = rx1 - rx0;
    const index_t pc = cy1 - cy0;
    sim::Buffer mine;
    if (z == 0) {
      CATRSM_ASSERT(ltilde.participates(),
                    "it_inv_trsm: front face must own ltilde");
      const Matrix& lt = ltilde.local();
      mine = sim::Buffer::uninit(static_cast<std::size_t>(pr * pc));
      double* dst = mine.mutable_data();
      for (index_t r = 0; r < pr; ++r)
        std::memcpy(dst + r * pc, lt.ptr() + (rx0 + r) * lt.cols() + cy0,
                    static_cast<std::size_t>(pc) * sizeof(double));
    }
    coll::Buffer out = coll::bcast(zf, /*root=*/0, std::move(mine),
                                   static_cast<std::size_t>(pr * pc));
    return Panel{std::move(out), pr, pc};
  };

  // --- Main iteration (Section VI-B / VII).
  for (int i = 0; i < nblocks; ++i) {
    const index_t oi = static_cast<index_t>(i) * nb;
    const index_t sz = std::min(nb, n - oi);

    // Solve: X(Si) = Ltilde(Si, Si) * B(Si).
    Panel xred;
    index_t sy_count = 0;
    {
      sim::PhaseScope solve_scope(ctx, "solve");
      const Panel diag_piece = bcast_piece(oi, oi + sz, oi, oi + sz);
      const auto [sy0, sy1] = local_range(oi, oi + sz, y, p1);
      sy_count = sy1 - sy0;
      CATRSM_ASSERT(diag_piece.cols == sy_count,
                    "it_inv_trsm: diagonal piece width mismatch");
      // The product lands straight on an uninitialized pooled slab, so
      // the allreduce ships it without a packing copy.
      sim::Buffer xp =
          sim::Buffer::uninit(static_cast<std::size_t>(diag_piece.rows * kz));
      la::kernel::gemm(diag_piece.rows, kz, sy_count, 1.0, diag_piece.ptr(),
                       diag_piece.cols, by_panel.ptr() + sy0 * kz, kz, 0.0,
                       xp.mutable_data(), kz);
      ctx.charge_flops(la::gemm_flops(diag_piece.rows, kz, sy_count));

      coll::Buffer xsum = coll::allreduce(yf, std::move(xp));
      xred = Panel{std::move(xsum), diag_piece.rows, kz};
      const auto [sx0, sx1] = local_range(oi, oi + sz, x, p1);
      CATRSM_ASSERT(sx1 - sx0 == xred.rows,
                    "it_inv_trsm: X slice mismatch");
      if (xred.rows * kz > 0)
        std::memcpy(x_panel.ptr() + sx0 * kz, xred.ptr(),
                    static_cast<std::size_t>(xred.rows * kz) * sizeof(double));
    }

    if (i + 1 >= nblocks) break;
    const index_t o2 = oi + sz;
    sim::PhaseScope update_scope(ctx, "update");

    // Update: accumulate L(T_{i+1}, Si) * X(Si) into the lazy buffer.
    const Panel panel_piece = bcast_piece(o2, n, oi, oi + sz);
    const Panel xt = transpose_exchange(xred.buf, xred.rows, sy_count,
                                        kTagXExchange);
    const auto [tx0, tx1] = local_range(o2, n, x, p1);
    if (panel_piece.rows > 0 && xt.rows > 0) {
      CATRSM_ASSERT(panel_piece.cols == xt.rows,
                    "it_inv_trsm: update contraction mismatch");
      Matrix contrib(panel_piece.rows, kz);
      la::kernel::gemm(panel_piece.rows, kz, panel_piece.cols, 1.0,
                       panel_piece.ptr(), panel_piece.cols, xt.ptr(), kz,
                       0.0, contrib.ptr(), kz);
      ctx.charge_flops(
          la::gemm_flops(panel_piece.rows, kz, panel_piece.cols));
      CATRSM_ASSERT(tx1 - tx0 == contrib.rows(),
                    "it_inv_trsm: update row mismatch");
      // Contiguous row axpy (the checked accessor would bounds-test every
      // element of this hot accumulation).
      for (index_t r = 0; r < contrib.rows(); ++r) {
        double* dst = u_buffer.ptr() + (tx0 + r) * kz;
        const double* src = contrib.ptr() + r * kz;
        for (index_t c = 0; c < kz; ++c) dst[c] += src[c];
      }
      ctx.charge_flops(static_cast<double>(contrib.size()));
    }

    // Reduce only the next block row of the buffer and correct B. The
    // reduced rows are contiguous full-width rows of u_buffer, so they
    // ship as a span view — no block copy before the collective.
    const index_t s2 = std::min(nb, n - o2);
    const auto [nx0, nx1] = local_range(o2, o2 + s2, x, p1);
    coll::Buffer csum = coll::allreduce(
        yf, std::span<const double>(
                u_buffer.ptr() + nx0 * kz,
                static_cast<std::size_t>((nx1 - nx0) * kz)));

    const auto [ny0, ny1] = local_range(o2, o2 + s2, y, p1);
    const Panel corr_t = transpose_exchange(std::move(csum), nx1 - nx0,
                                            ny1 - ny0, kTagCorrExchange);
    for (index_t r = 0; r < corr_t.rows; ++r) {
      double* dst = by_panel.ptr() + (ny0 + r) * kz;
      const double* src = corr_t.ptr() + r * kz;
      for (index_t c = 0; c < kz; ++c) dst[c] -= src[c];
    }
    ctx.charge_flops(static_cast<double>(corr_t.rows * kz));
  }

  // --- The y = 0 plane holds the solution in B's layout.
  DistMatrix xout(b.dist_ptr(), ctx.id());
  if (xout.participates()) {
    CATRSM_ASSERT(xout.local().rows() == x_panel.rows() &&
                      xout.local().cols() == x_panel.cols(),
                  "it_inv_trsm: output shape mismatch");
    xout.local() = std::move(x_panel);
  }
  return xout;
}

}  // namespace

DistMatrix it_inv_trsm(const DistMatrix& l, const DistMatrix& b,
                       const sim::Comm& comm, int p1, int p2,
                       ItInvOptions opts, Replica* replica) {
  const int nblocks = it_inv_block_count(l.dist().rows(), b.dist().cols(),
                                         comm.size(), opts.nblocks);
  // Phase labels reproduce the paper's Section VII cost decomposition
  // (T = T_Inv + T_Solve + T_Upd) in RunStats::phase_max; a replay has no
  // T_Inv.
  ReplicaPass pass(replica);
  DistMatrix ltilde;
  if (pass.replay) {
    // The site below moves the replayed block over this one.
    ltilde = DistMatrix::uninit(l.dist_ptr(), comm.ctx().id());
  } else {
    sim::PhaseScope scope(comm.ctx(), "inversion");
    ltilde = diag_inverter(l, comm, nblocks);
  }
  // The solve runs inside the site's scope: the block returns to the
  // replica when the scope ends.
  const SiteBlock site(pass, ltilde.local(), ltilde.local().rows(),
                       ltilde.local().cols());
  DistMatrix x = it_inv_solve(ltilde, b, comm, p1, p2, nblocks);
  pass.finish();
  return x;
}

}  // namespace catrsm::trsm
