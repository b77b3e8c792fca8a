#include "mm/mm3d.hpp"

#include <limits>

#include "coll/collectives.hpp"
#include "la/gemm.hpp"
#include "support/check.hpp"

namespace catrsm::mm {

using dist::BlockCyclicDist;
using dist::Cyclic3DDist;
using dist::Face2D;
using dist::ProcGrid3D;

double mm3d_model_words(index_t m, index_t n, index_t k, int p1, int p2) {
  const double mm = static_cast<double>(m);
  const double nn = static_cast<double>(n);
  const double kk = static_cast<double>(k);
  double w = 0.0;
  if (p2 > 1) w += mm * nn / (static_cast<double>(p1) * p1);
  if (p1 > 1) w += (nn + mm) * kk / (static_cast<double>(p1) * p2);
  return w;
}

MMGrid choose_mm_grid(index_t m, index_t n, index_t k, int p) {
  CATRSM_CHECK(p >= 1, "choose_mm_grid: p must be positive");
  MMGrid best{1, p};
  double best_w = std::numeric_limits<double>::max();
  for (int p1 = 1; p1 * p1 <= p; ++p1) {
    if (p % (p1 * p1) != 0) continue;
    const int p2 = p / (p1 * p1);
    const double w = mm3d_model_words(m, n, k, p1, p2);
    // Prefer strictly better bandwidth; tie-break toward the larger p1
    // (more parallelism in the reduction dimension, fewer words in ties).
    if (w < best_w - 1e-12 || (w < best_w + 1e-12 && p1 > best.p1)) {
      best_w = w;
      best = MMGrid{p1, p2};
    }
  }
  return best;
}

namespace {

/// Face over `grid`'s communicator with member order
/// (gi = y + p1*x, gj = z): the pre-allgather home of the X panels.
Face2D x_panel_face(const ProcGrid3D& grid) {
  const int p1 = grid.p1();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(grid.size()));
  for (int z = 0; z < grid.p2(); ++z)
    for (int gi = 0; gi < p1 * p1; ++gi)
      order.push_back(grid.at(gi / p1, gi % p1, z));
  return Face2D(grid.comm().subset(order), p1 * p1, grid.p2());
}

/// Face with the communicator's natural order (gi = x + p1*y, gj = z): the
/// post-reduce-scatter home of the B panels.
Face2D b_panel_face(const ProcGrid3D& grid) {
  std::vector<int> order(static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  return Face2D(grid.comm().subset(order), grid.p1() * grid.p1(), grid.p2());
}

/// Count of values t in [0, total) with t % mod == residue.
index_t strided_count(index_t total, index_t mod, index_t residue) {
  if (residue >= total) return 0;
  return (total - residue - 1) / mod + 1;
}

}  // namespace

DistMatrix mm3d(const DistMatrix& a, const DistMatrix& x,
                std::shared_ptr<const Distribution> out_dist,
                const sim::Comm& comm, MMGrid g, double alpha) {
  const index_t m = a.dist().rows();
  const index_t n = a.dist().cols();
  const index_t k = x.dist().cols();
  CATRSM_CHECK(x.dist().rows() == n, "mm3d: inner dimensions differ");
  CATRSM_CHECK(out_dist->rows() == m && out_dist->cols() == k,
               "mm3d: output shape mismatch");
  CATRSM_CHECK(comm.size() == g.p1 * g.p1 * g.p2,
               "mm3d: communicator size must equal p1^2 * p2");

  const ProcGrid3D grid(comm, g.p1, g.p2);
  const int p1 = g.p1;
  const int p2 = g.p2;
  const int mx = grid.my_x();
  const int my = grid.my_y();
  const int mz = grid.my_z();
  auto& ctx = comm.ctx();

  // --- Stage 1: bring A into the 3D cyclic layout, then allgather the
  // z-fiber slices into the full cyclic block A'[x, y] (paper line 2).
  auto a3d_dist = std::make_shared<Cyclic3DDist>(grid, m, n);
  const DistMatrix a3d = dist::redistribute(a, a3d_dist, comm);

  const index_t a_rows = strided_count(m, p1, mx);  // rows i ≡ x (mod p1)
  const index_t a_cols = strided_count(n, p1, my);  // cols j ≡ y (mod p1)
  la::Matrix aprime(a_rows, a_cols);
  {
    sim::Comm zf = grid.z_fiber();
    coll::Counts counts(static_cast<std::size_t>(p2));
    for (int z = 0; z < p2; ++z) {
      const auto shape = a3d_dist->local_shape(zf.world_rank(z));
      counts[static_cast<std::size_t>(z)] =
          static_cast<std::size_t>(shape.first * shape.second);
    }
    const coll::Buffer all =
        coll::allgather(zf, a3d.local().data(), counts);
    // Piece z holds rows with (i / p1) ≡ z (mod p2); interleave them back:
    // local row t of A' (global i = x + p1 t) came from piece z = t % p2.
    std::size_t pos = 0;
    for (int z = 0; z < p2; ++z) {
      const index_t zrows = strided_count(a_rows, p2, z);
      for (index_t rr = 0; rr < zrows; ++rr) {
        const index_t t = static_cast<index_t>(z) + rr * p2;
        for (index_t c = 0; c < a_cols; ++c) aprime(t, c) = all[pos++];
      }
    }
    CATRSM_ASSERT(pos == all.size(), "mm3d: A allgather size mismatch");
  }

  // --- Stage 2: bring X into the pre-replication layout (rows cyclic over
  // p1^2 keyed by (y + p1 x), columns cyclic over p2 keyed by z), then
  // allgather over x-fibers into the panel X'[y, z] (paper lines 3-5).
  const Face2D xface = x_panel_face(grid);
  auto xpre_dist = std::make_shared<BlockCyclicDist>(xface, n, k, 1, 1);
  const DistMatrix xpre = dist::redistribute(x, xpre_dist, comm);

  const index_t panel_rows = strided_count(n, p1, my);  // rows i ≡ y (mod p1)
  const index_t panel_cols = strided_count(k, p2, mz);  // cols j ≡ z (mod p2)
  la::Matrix xpanel(panel_rows, panel_cols);
  {
    sim::Comm xf = grid.x_fiber();
    coll::Counts counts(static_cast<std::size_t>(p1));
    for (int xx = 0; xx < p1; ++xx) {
      const auto shape = xpre_dist->local_shape(xf.world_rank(xx));
      counts[static_cast<std::size_t>(xx)] =
          static_cast<std::size_t>(shape.first * shape.second);
    }
    const coll::Buffer all =
        coll::allgather(xf, xpre.local().data(), counts);
    // Piece x holds panel rows t ≡ x (mod p1) (t indexes rows i = y + p1 t).
    std::size_t pos = 0;
    for (int xx = 0; xx < p1; ++xx) {
      const index_t xrows = strided_count(panel_rows, p1, xx);
      for (index_t rr = 0; rr < xrows; ++rr) {
        const index_t t = static_cast<index_t>(xx) + rr * p1;
        for (index_t c = 0; c < panel_cols; ++c) xpanel(t, c) = all[pos++];
      }
    }
    CATRSM_ASSERT(pos == all.size(), "mm3d: X allgather size mismatch");
  }

  // --- Stage 3: local contraction over the y-indexed columns of A'
  // (paper line 6).
  la::Matrix bpartial = la::matmul(aprime, xpanel);
  ctx.charge_flops(la::gemm_flops(a_rows, panel_cols, a_cols));

  // --- Stage 4: reduce-scatter the partial results over y-fibers; share
  // y' keeps block rows t ≡ y' (mod p1) (paper line 7).
  la::Matrix breduced;
  {
    // Group rows by their destination share so segments are contiguous.
    la::Matrix grouped(a_rows, panel_cols);
    coll::Counts counts(static_cast<std::size_t>(p1));
    index_t gr = 0;
    for (int yy = 0; yy < p1; ++yy) {
      const index_t yrows = strided_count(a_rows, p1, yy);
      counts[static_cast<std::size_t>(yy)] =
          static_cast<std::size_t>(yrows * panel_cols);
      for (index_t rr = 0; rr < yrows; ++rr) {
        const index_t t = static_cast<index_t>(yy) + rr * p1;
        for (index_t c = 0; c < panel_cols; ++c)
          grouped(gr, c) = bpartial(t, c);
        ++gr;
      }
    }
    CATRSM_ASSERT(gr == a_rows, "mm3d: grouping row count mismatch");
    sim::Comm yf = grid.y_fiber();
    coll::Buffer mine = coll::reduce_scatter(yf, grouped.data(), counts);
    const index_t my_share_rows = strided_count(a_rows, p1, my);
    breduced = la::Matrix(my_share_rows, panel_cols, mine.span());
  }
  if (alpha != 1.0) breduced.scale(alpha);

  // --- Stage 5: the reduced panel lives cyclically on the natural face
  // (rows keyed by x + p1 y mod p1^2, columns by z mod p2); hand it to the
  // caller's layout with one more all-to-all (paper line 8).
  const Face2D bface = b_panel_face(grid);
  auto bpanel_dist = std::make_shared<BlockCyclicDist>(bface, m, k, 1, 1);
  DistMatrix bpanel(bpanel_dist, ctx.id());
  CATRSM_ASSERT(bpanel.local().rows() == breduced.rows() &&
                    bpanel.local().cols() == breduced.cols(),
                "mm3d: B panel shape mismatch");
  bpanel.local() = std::move(breduced);

  return dist::redistribute(bpanel, std::move(out_dist), comm);
}

}  // namespace catrsm::mm
