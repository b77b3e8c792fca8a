#include "factor/cholesky_dist.hpp"

#include <algorithm>
#include <cmath>

#include "coll/collectives.hpp"
#include "dist/redistribute.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/trsm.hpp"
#include "support/check.hpp"

namespace catrsm::factor {

using dist::BlockCyclicDist;
using dist::Face2D;
using la::Matrix;

namespace {
constexpr int kTagPanelExchange = 921;
}

DistMatrix cholesky_dist(const DistMatrix& a, const sim::Comm& comm,
                         index_t nb) {
  const auto* ad = dynamic_cast<const BlockCyclicDist*>(&a.dist());
  CATRSM_CHECK(ad != nullptr && ad->br() == 1 && ad->bc() == 1,
               "cholesky_dist: requires a unit-block cyclic layout");
  const index_t n = a.dist().rows();
  CATRSM_CHECK(a.dist().cols() == n, "cholesky_dist: matrix must be square");
  const Face2D& face = ad->face();
  const int q = face.pr();
  CATRSM_CHECK(face.pc() == q,
               "cholesky_dist: requires a square processor grid (the "
               "symmetric update uses mirror-rank exchanges)");
  auto& ctx = comm.ctx();
  if (nb <= 0)
    nb = std::max<index_t>(
        1, n / std::max<index_t>(
                   4 * static_cast<index_t>(std::lround(std::sqrt(
                           static_cast<double>(q) * q))),
                   1));

  const int gi = face.my_gi();
  const int gj = face.my_gj();
  const sim::Comm rowc = face.row_comm();

  Matrix acur = a.local();  // working copy; trailing part evolves
  DistMatrix lout(a.dist_ptr(), a.me());
  const auto& my_rows = a.my_rows();
  const auto& my_cols = a.my_cols();

  // Local position of every global row (resp. column), -1 where I own
  // none, so no loop below searches my index lists.
  std::vector<index_t> local_row(static_cast<std::size_t>(n), -1);
  std::vector<index_t> local_col(static_cast<std::size_t>(n), -1);
  for (std::size_t r = 0; r < my_rows.size(); ++r)
    local_row[static_cast<std::size_t>(my_rows[r])] = static_cast<index_t>(r);
  for (std::size_t c = 0; c < my_cols.size(); ++c)
    local_col[static_cast<std::size_t>(my_cols[c])] = static_cast<index_t>(c);

  for (index_t o = 0; o < n; o += nb) {
    const index_t sz = std::min(nb, n - o);

    // (1) Factor the diagonal block redundantly on every rank.
    const Matrix adiag = dist::gather_region(a.dist(), acur, a.me(), comm, o,
                                             o + sz, o, o + sz);
    const Matrix lfact = la::cholesky(adiag);
    ctx.charge_flops(static_cast<double>(sz) * sz * sz / 3.0);

    // Write my piece of the diagonal factor (lower part only).
    for (index_t i = o; i < o + sz; ++i) {
      const index_t lr = local_row[static_cast<std::size_t>(i)];
      if (lr < 0) continue;
      for (index_t j = o; j <= i; ++j) {
        const index_t lc = local_col[static_cast<std::size_t>(j)];
        if (lc >= 0) lout.local()(lr, lc) = lfact(i - o, j - o);
      }
    }
    if (o + sz >= n) break;

    // (2) Panel solve: gather my trailing rows of A(T, Si) across the grid
    // row, then L(T, Si) = A(T, Si) * L(Si,Si)^{-T} locally per rank.
    std::vector<index_t> trail_rows;
    for (const index_t r : my_rows)
      if (r >= o + sz) trail_rows.push_back(r);

    // Columns of Si per grid column: peers in my grid row share my row set
    // but own disjoint column subsets.
    std::vector<std::vector<index_t>> cols_of(static_cast<std::size_t>(q));
    for (index_t j = o; j < o + sz; ++j)
      cols_of[static_cast<std::size_t>(a.dist().part_of_col(j))].push_back(j);
    const std::vector<index_t>& my_panel_cols =
        cols_of[static_cast<std::size_t>(gj)];

    Matrix apanel(static_cast<index_t>(trail_rows.size()), sz);
    {
      // Assemble columns of Si across the row communicator.
      coll::Counts counts(static_cast<std::size_t>(q));
      for (int w = 0; w < q; ++w)
        counts[static_cast<std::size_t>(w)] =
            cols_of[static_cast<std::size_t>(w)].size() * trail_rows.size();
      coll::Buf mine;
      for (const index_t r : trail_rows) {
        const index_t lr = local_row[static_cast<std::size_t>(r)];
        for (const index_t j : my_panel_cols)
          mine.push_back(acur(lr, local_col[static_cast<std::size_t>(j)]));
      }
      const coll::Buffer all =
          coll::allgather(rowc, std::move(mine), counts);
      std::size_t pos = 0;
      for (int w = 0; w < q; ++w)
        for (index_t r = 0; r < static_cast<index_t>(trail_rows.size()); ++r)
          for (const index_t j : cols_of[static_cast<std::size_t>(w)])
            apanel(r, j - o) = all[pos++];
      CATRSM_ASSERT(pos == all.size(), "cholesky_dist: panel size mismatch");
    }

    // X * L^T = A  =>  right-solve against the upper-triangular L^T.
    const Matrix lfact_t = lfact.transposed();
    la::trsm_right(la::Uplo::kUpper, la::Diag::kNonUnit, lfact_t, apanel);
    ctx.charge_flops(static_cast<double>(sz) * sz *
                     static_cast<double>(trail_rows.size()));

    // Write my columns of the panel into L.
    for (std::size_t r = 0; r < trail_rows.size(); ++r) {
      const index_t lr = local_row[static_cast<std::size_t>(trail_rows[r])];
      for (const index_t j : my_panel_cols)
        lout.local()(lr, local_col[static_cast<std::size_t>(j)]) =
            apanel(static_cast<index_t>(r), j - o);
    }

    // (3) Symmetric trailing update. The mirror rank (gj, gi) holds the
    // panel rows congruent to my gj; one exchange supplies the transposed
    // operand. Trailing columns beyond o+sz that I own are exactly the
    // mirror's trailing rows, in the same ascending order.
    // Build the TRANSPOSED mirror operand directly — from the frozen
    // received view when exchanging (no copy off the slab), or from my
    // own panel on the diagonal.
    Matrix mirror_t;
    if (gi != gj) {
      const int peer = face.at(gj, gi);
      coll::Buffer got =
          comm.sendrecv(peer, apanel.data(), kTagPanelExchange);
      index_t peer_rows = 0;
      for (const index_t c : my_cols)
        if (c >= o + sz) ++peer_rows;
      CATRSM_ASSERT(static_cast<index_t>(got.size()) == peer_rows * sz,
                    "cholesky_dist: mirror panel size mismatch");
      mirror_t = Matrix(sz, peer_rows);
      const double* src = got.data();
      for (index_t r = 0; r < peer_rows; ++r)
        for (index_t c = 0; c < sz; ++c) mirror_t(c, r) = src[r * sz + c];
    } else {
      mirror_t = apanel.transposed();
    }

    if (!trail_rows.empty() && mirror_t.cols() > 0) {
      const Matrix upd = la::matmul(apanel, mirror_t);
      ctx.charge_flops(
          la::gemm_flops(apanel.rows(), mirror_t.cols(), sz));
      std::vector<index_t> trail_cols;
      for (const index_t c : my_cols)
        if (c >= o + sz) trail_cols.push_back(c);
      CATRSM_ASSERT(static_cast<index_t>(trail_cols.size()) ==
                        mirror_t.cols(),
                    "cholesky_dist: trailing column mismatch");
      for (std::size_t r = 0; r < trail_rows.size(); ++r) {
        const index_t lr = local_row[static_cast<std::size_t>(trail_rows[r])];
        for (std::size_t c = 0; c < trail_cols.size(); ++c)
          acur(lr, local_col[static_cast<std::size_t>(trail_cols[c])]) -=
              upd(static_cast<index_t>(r), static_cast<index_t>(c));
      }
      ctx.charge_flops(static_cast<double>(trail_rows.size()) *
                       static_cast<double>(trail_cols.size()));
    }
  }
  return lout;
}

}  // namespace catrsm::factor
