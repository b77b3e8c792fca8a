#include "api/op_bodies.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "dist/grid.hpp"
#include "factor/cholesky_dist.hpp"
#include "mm/mm3d.hpp"
#include "mm/summa2d.hpp"
#include "support/check.hpp"
#include "trsm/it_inv_trsm.hpp"
#include "trsm/rec_trsm.hpp"
#include "trsm/tri_inv_dist.hpp"
#include "trsm/trsm2d.hpp"
#include "trsm/trsv1d.hpp"

namespace catrsm::api::detail {

using dist::DistMatrix;
using dist::Face2D;

namespace {

/// Canonical world-rank member list of a layout's face.
std::vector<int> layout_members(const Layout& lay) {
  std::vector<int> idx;
  switch (lay.kind) {
    case LayoutKind::kCyclic2D:
      // Rank prefix, like it_inv_l_face's subset of the first p1^2.
      idx.resize(static_cast<std::size_t>(lay.p1) *
                 static_cast<std::size_t>(lay.p2));
      std::iota(idx.begin(), idx.end(), 0);
      break;
    case LayoutKind::kRowCyclicColBlocked:
      idx = trsm::it_inv_b_face_members(lay.p1, lay.p2);
      break;
  }
  return idx;
}

std::shared_ptr<const dist::Distribution> realize_on(const Layout& lay,
                                                     index_t rows,
                                                     index_t cols,
                                                     sim::Comm face_comm) {
  Face2D face(std::move(face_comm), lay.p1, lay.p2);
  switch (lay.kind) {
    case LayoutKind::kCyclic2D:
      return dist::cyclic_on(face, rows, cols);
    case LayoutKind::kRowCyclicColBlocked:
      return dist::row_cyclic_col_blocked(face, rows, cols);
  }
  throw Error("realize: unknown layout kind");
}

}  // namespace

void check_layout_fits(const Layout& lay, int p) {
  CATRSM_CHECK(lay.p1 >= 1 && lay.p2 >= 1,
               "layout: grid dims must be positive");
  const int span = lay.kind == LayoutKind::kRowCyclicColBlocked
                       ? lay.p1 * lay.p1 * lay.p2
                       : lay.p1 * lay.p2;
  CATRSM_CHECK(span <= p, "layout: grid does not fit the machine");
}

std::shared_ptr<const dist::Distribution> realize(const Layout& lay,
                                                  index_t rows, index_t cols,
                                                  const sim::Comm& base) {
  check_layout_fits(lay, base.size());
  return realize_on(lay, rows, cols, base.subset(layout_members(lay)));
}

std::shared_ptr<const dist::Distribution> realize_host(const Layout& lay,
                                                       index_t rows,
                                                       index_t cols, int p) {
  check_layout_fits(lay, p);
  return realize_on(lay, rows, cols,
                    sim::Comm::describe(layout_members(lay)));
}

int grid_ranks(const OpDesc& desc, const model::Config& cfg, int p) {
  switch (desc.op) {
    case Op::kTrsm:
      return cfg.algorithm == model::Algorithm::kIterative
                 ? cfg.p1 * cfg.p1 * cfg.p2
                 : p;
    case Op::kCholesky:
    case Op::kCholeskySolve:
      return cfg.p1 * cfg.p1;
    default:
      return p;
  }
}

bool Replica::make_resident() {
  std::size_t blocks = 0;
  for (const std::vector<la::Matrix>& mine : staged)
    blocks = std::max(blocks, mine.size());
  for (const std::vector<la::Matrix>& mine : staged)
    CATRSM_CHECK(mine.empty() || mine.size() == blocks,
                 "replica: ranks recorded different block counts");
  for (std::size_t i = 0; i < blocks; ++i) {
    ids.push_back(store.create());
    if (!store.attach(ids.back(), operand)) return false;
    for (std::size_t r = 0; r < staged.size(); ++r)
      if (!staged[r].empty())
        store.local(ids.back(), static_cast<int>(r)) =
            std::move(staged[r][i]);
    store.touch(ids.back());
  }
  staged.clear();
  return true;
}

DistMatrix trsm_solve(const model::Config& cfg, const sim::Comm& grid,
                      const DistMatrix& dl, const DistMatrix& db,
                      trsm::Replica* replica) {
  switch (cfg.algorithm) {
    case model::Algorithm::kIterative: {
      trsm::ItInvOptions iio;
      iio.nblocks = cfg.nblocks;
      return trsm::it_inv_trsm(dl, db, grid, cfg.p1, cfg.p2, iio, replica);
    }
    case model::Algorithm::kRecursive:
      return trsm::rec_trsm(dl, db, grid, {}, replica);
    case model::Algorithm::kTrsm2D:
      return trsm::trsm2d(dl, db, grid);
    case model::Algorithm::kTrsv1D:
      return trsm::trsv1d(dl, db, grid);
  }
  throw Error("execute: unknown algorithm");
}

DistMatrix trsm_transposed_solve(const model::Config& cfg,
                                 const sim::Comm& grid, const DistMatrix& dl,
                                 const DistMatrix& db) {
  auto ad = dl.dist_ptr();
  auto bd = db.dist_ptr();
  trsm::ItInvOptions iio;
  iio.nblocks = cfg.nblocks;
  DistMatrix lt = dist::transpose(dl, ad, grid);
  DistMatrix ltr = dist::reverse_both(lt, ad, grid);
  DistMatrix yrev = dist::reverse_rows(db, bd, grid);
  DistMatrix xrev = trsm::it_inv_trsm(ltr, yrev, grid, cfg.p1, cfg.p2, iio);
  return dist::reverse_rows(xrev, bd, grid);
}

DistMatrix op_body(const OpDesc& desc, const model::Config& cfg,
                   const sim::Comm& grid, const DistMatrix& a,
                   const DistMatrix& b, trsm::Replica* replica) {
  if (!grid.is_member()) return {};
  switch (desc.op) {
    case Op::kTrsm:
      return desc.trsm.transpose ? trsm_transposed_solve(cfg, grid, a, b)
                                 : trsm_solve(cfg, grid, a, b, replica);
    case Op::kTriInv:
      return trsm::tri_inv_dist(a, grid);
    case Op::kCholesky:
      return factor::cholesky_dist(a, grid);
    case Op::kMatmul3D: {
      auto od = realize(cyclic_layout(cfg.pr, cfg.pc), desc.n, desc.k, grid);
      return mm::mm3d(a, b, od, grid, mm::MMGrid{cfg.p1, cfg.p2});
    }
    case Op::kMatmul2D:
      return mm::summa2d(a, b);
    case Op::kCholeskySolve:
      break;  // composed as a Program of the three bodies above
  }
  throw Error("op_body: op has no single distributed body");
}

}  // namespace catrsm::api::detail
