#include "trsm/rec_trsm.hpp"

#include <algorithm>
#include <cmath>

#include "coll/collectives.hpp"
#include "dist/redistribute.hpp"
#include "la/trsm.hpp"
#include "mm/mm3d.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

using dist::BlockCyclicDist;
using dist::Face2D;

namespace {

const BlockCyclicDist& as_cyclic(const DistMatrix& m, const char* who) {
  const auto* d = dynamic_cast<const BlockCyclicDist*>(&m.dist());
  CATRSM_CHECK(d != nullptr && d->br() == 1 && d->bc() == 1,
               std::string(who) + ": requires a unit-block cyclic layout");
  return *d;
}

/// Base case: gather L onto every rank, split B's columns over all p ranks
/// (paper lines 6-9), solve locally, and return to B's layout.
DistMatrix rec_base(const DistMatrix& l, const DistMatrix& b,
                    const sim::Comm& comm, ReplicaPass& pass) {
  const index_t n = l.dist().rows();
  const index_t k = b.dist().cols();
  auto& ctx = comm.ctx();
  const int p = comm.size();

  la::Matrix lfull;
  const SiteBlock site(pass, lfull, n, n);
  if (!pass.replay) {
    sim::PhaseScope scope(ctx, "replication");
    lfull = dist::collect(l, comm);
  }

  // Column split over a flat 1 x p face: rank q gets a contiguous slab.
  Face2D flat(comm, 1, p);
  auto cols_dist = std::make_shared<BlockCyclicDist>(
      flat, n, k, std::max<index_t>(n, 1),
      std::max<index_t>(ceil_div(k, p), 1));
  DistMatrix bcols = dist::redistribute(b, cols_dist, comm);

  if (bcols.local().cols() > 0) {
    la::trsm_left(la::Uplo::kLower, la::Diag::kNonUnit, lfull,
                  bcols.local());
  }
  ctx.charge_flops(la::trsm_flops(n, bcols.local().cols()));

  return dist::redistribute(bcols, b.dist_ptr(), comm);
}

DistMatrix rec_trsm_impl(const DistMatrix& l, DistMatrix b,
                         const sim::Comm& comm, index_t n0,
                         ReplicaPass& pass);

/// pc = q * pr with q > 1: replicate L into q square subgrids and solve an
/// independent column subset of B on each (paper lines 1-4).
DistMatrix rec_split_columns(const DistMatrix& l, const DistMatrix& b,
                             const sim::Comm& comm, index_t n0,
                             ReplicaPass& pass) {
  const auto& ld = as_cyclic(l, "rec_trsm");
  const Face2D& face = ld.face();
  const int pr = face.pr();
  const int pc = face.pc();
  const int q = pc / pr;
  const index_t n = l.dist().rows();
  const index_t k = b.dist().cols();
  CATRSM_CHECK(ld.rsrc() == 0 && ld.csrc() == 0,
               "rec_trsm: column split requires an unshifted layout");

  const int gi = face.my_gi();
  const int gj = face.my_gj();
  const int y = gj % pr;   // position within the square subgrid
  const int z = gj / pr;   // which subgrid

  // --- Replicate L: allgather over the fiber (gi, y + pr*z') for all z'.
  // A replay skips it; the subgrid block comes from the replica below.
  coll::Counts counts(static_cast<std::size_t>(q));
  coll::Buffer all;
  if (!pass.replay) {
    sim::PhaseScope scope(comm.ctx(), "replication");
    std::vector<int> fiber_idx;
    fiber_idx.reserve(static_cast<std::size_t>(q));
    for (int zz = 0; zz < q; ++zz)
      fiber_idx.push_back(face.at(gi, y + pr * zz));
    sim::Comm fiber = face.comm().subset(fiber_idx);
    for (int zz = 0; zz < q; ++zz) {
      const auto shape = ld.local_shape(fiber.world_rank(zz));
      counts[static_cast<std::size_t>(zz)] =
          static_cast<std::size_t>(shape.first * shape.second);
    }
    all = coll::allgather(fiber, l.local().data(), counts);
  }

  // --- The square subgrid face (ranks (x', y' + pr*z) ordered x' + pr*y').
  std::vector<int> sub_idx;
  sub_idx.reserve(static_cast<std::size_t>(pr * pr));
  for (int yy = 0; yy < pr; ++yy)
    for (int xx = 0; xx < pr; ++xx) sub_idx.push_back(face.at(xx, yy + pr * z));
  Face2D subface(face.comm().subset(sub_idx), pr, pr);

  // Every element is assembled below, or the replayed block moves over.
  DistMatrix lsub =
      DistMatrix::uninit(dist::cyclic_on(subface, n, n), comm.ctx().id());
  const SiteBlock site(pass, lsub.local(), lsub.local().rows(),
                       lsub.local().cols());
  if (!pass.replay) {
    // Piece z' holds my rows x columns j ≡ y + pr z' (mod pc). Column t of
    // the assembled block (global j = y + pr t) comes from piece t mod q.
    const index_t lrows = static_cast<index_t>(l.my_rows().size());
    const index_t lcols = lsub.local().cols();
    std::vector<std::size_t> offset(static_cast<std::size_t>(q) + 1, 0);
    for (int zz = 0; zz < q; ++zz)
      offset[static_cast<std::size_t>(zz) + 1] =
          offset[static_cast<std::size_t>(zz)] +
          counts[static_cast<std::size_t>(zz)];
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    // Operate on the frozen allgather payload directly: hoist the slab
    // pointer (and the destination row pointer) out of the element loop
    // instead of re-deriving the view base per element.
    const double* src = all.data();
    double* dst = lsub.local().ptr();
    for (index_t rr = 0; rr < lrows; ++rr) {
      double* drow = dst + rr * lcols;
      for (index_t t = 0; t < lcols; ++t) {
        const auto zz = static_cast<std::size_t>(t % q);
        drow[t] = src[cursor[zz]++];
      }
    }
  }

  // --- My columns of B all belong to subgrid z; relabel them.
  index_t kz = 0;
  for (index_t j = 0; j < k; ++j)
    if ((j % pc) / pr == z) ++kz;
  DistMatrix bsub(dist::cyclic_on(subface, n, kz), comm.ctx().id(),
                  b.local());

  sim::Comm subcomm = subface.comm();
  DistMatrix xsub = rec_trsm_impl(lsub, std::move(bsub), subcomm, n0, pass);

  // --- Relabel the solution back onto the original face.
  return DistMatrix(b.dist_ptr(), comm.ctx().id(), std::move(xsub.local()));
}

DistMatrix rec_trsm_impl(const DistMatrix& l, DistMatrix b,
                         const sim::Comm& comm, index_t n0,
                         ReplicaPass& pass) {
  const auto& ld = as_cyclic(l, "rec_trsm");
  const Face2D& face = ld.face();
  const int pr = face.pr();
  const int pc = face.pc();
  const index_t n = l.dist().rows();
  const index_t k = b.dist().cols();

  if (pc > pr) {
    CATRSM_CHECK(pc % pr == 0, "rec_trsm: pr must divide pc");
    return rec_split_columns(l, b, comm, n0, pass);
  }

  if (n <= n0 || comm.size() == 1 || n <= 1) {
    return rec_base(l, b, comm, pass);
  }

  const index_t h = n / 2;
  const DistMatrix l11 = dist::cyclic_subblock(l, 0, 0, h, h);
  const DistMatrix l21 = dist::cyclic_subblock(l, h, 0, n - h, h);
  const DistMatrix l22 = dist::cyclic_subblock(l, h, h, n - h, n - h);
  DistMatrix b1 = dist::cyclic_subblock(b, 0, 0, h, k);
  DistMatrix b2 = dist::cyclic_subblock(b, h, 0, n - h, k);

  DistMatrix x1 = rec_trsm_impl(l11, std::move(b1), comm, n0, pass);

  // B2 -= L21 * X1 via one 3D multiplication (paper line 14).
  const mm::MMGrid grid = mm::choose_mm_grid(n - h, h, k, comm.size());
  DistMatrix upd = mm::mm3d(l21, x1, b2.dist_ptr(), comm, grid);
  b2.local().sub(upd.local());
  comm.ctx().charge_flops(static_cast<double>(b2.local().size()));

  DistMatrix x2 = rec_trsm_impl(l22, std::move(b2), comm, n0, pass);

  DistMatrix x(b.dist_ptr(), comm.ctx().id());
  dist::set_cyclic_subblock(x, 0, 0, x1);
  dist::set_cyclic_subblock(x, h, 0, x2);
  return x;
}

}  // namespace

index_t rec_trsm_auto_n0(index_t n, index_t k, int pr, int pc) {
  const double p = static_cast<double>(pr) * pc;
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double sqrtp = std::sqrt(p);
  const double logp = std::max(1.0, std::log2(p));
  double n0;
  if (dn < dk / p) {
    n0 = dn;  // 1D regime: no recursion on L at all
  } else if (dn > dk * sqrtp) {
    // 2D regime: n0 = max(sqrt p, n log p / sqrt p)  (Section IV-A).
    n0 = std::max(sqrtp, dn * logp / sqrtp);
  } else {
    // 3D regime: n0 = n^{1/3} (k / pr^2)^{2/3}.
    n0 = std::cbrt(dn) *
         std::pow(dk / (static_cast<double>(pr) * pr), 2.0 / 3.0);
  }
  return std::clamp<index_t>(static_cast<index_t>(std::llround(n0)), 1, n);
}

DistMatrix rec_trsm(const DistMatrix& l, const DistMatrix& b,
                    const sim::Comm& comm, RecTrsmOptions opts,
                    Replica* replica) {
  const auto& ld = as_cyclic(l, "rec_trsm");
  const auto& bd = as_cyclic(b, "rec_trsm");
  CATRSM_CHECK(l.dist().rows() == l.dist().cols(),
               "rec_trsm: L must be square");
  CATRSM_CHECK(b.dist().rows() == l.dist().rows(),
               "rec_trsm: dimension mismatch");
  CATRSM_CHECK(ld.face().pr() == bd.face().pr() &&
                   ld.face().pc() == bd.face().pc(),
               "rec_trsm: L and B must share a face");
  CATRSM_CHECK(ld.face().pc() % ld.face().pr() == 0,
               "rec_trsm: pr must divide pc");

  index_t n0 = opts.n0;
  if (n0 <= 0)
    n0 = rec_trsm_auto_n0(l.dist().rows(), b.dist().cols(), ld.face().pr(),
                          ld.face().pc());
  DistMatrix bcopy = b;
  ReplicaPass pass(replica);
  DistMatrix x = rec_trsm_impl(l, std::move(bcopy), comm, n0, pass);
  pass.finish();
  return x;
}

}  // namespace catrsm::trsm
