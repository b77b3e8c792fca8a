#pragma once
// Data distributions: which rank owns which matrix element.
//
// A Distribution partitions the rows of a matrix into `row_parts` groups
// and the columns into `col_parts` groups; the (rpart, cpart) intersection
// lives on one world rank. Everything a redistribution or collective needs
// — ownership of any element, the local shape of any rank, the sorted
// global indices a rank holds — is derivable arithmetically on every rank
// without communication, which is what keeps layout transitions at the
// paper's advertised all-to-all cost (no size-exchange round).
//
// Concrete layouts:
//  - BlockCyclicDist: ScaLAPACK-style br x bc block-cyclic over a Face2D,
//    with optional part shifts (rsrc, csrc) so sub-blocks of a cyclic
//    matrix are again block-cyclic. br = 1, bc = 1 is the elementwise
//    cyclic layout every solver in this library consumes.
//  - Cyclic3DDist: the mm3d staging layout on a p1 x p1 x p2 grid — rank
//    (x, y, z) owns rows i with i ≡ x (mod p1) and (i / p1) ≡ z (mod p2),
//    columns j ≡ y (mod p1).

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dist/grid.hpp"

namespace catrsm::dist {

class Distribution {
 public:
  virtual ~Distribution() = default;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  virtual int row_parts() const = 0;
  virtual int col_parts() const = 0;
  virtual int part_of_row(index_t i) const = 0;
  virtual int part_of_col(index_t j) const = 0;
  /// World rank owning the (rpart, cpart) intersection.
  virtual int world_rank_of(int rpart, int cpart) const = 0;
  /// Inverse of world_rank_of; nullopt when `w` holds no part.
  virtual std::optional<std::pair<int, int>> parts_of_world(int w) const = 0;

  /// Sorted global row indices of a row part (resp. column part).
  std::vector<index_t> rows_of_part(int rpart) const;
  std::vector<index_t> cols_of_part(int cpart) const;

  /// The rows in [lo, hi) (resp. columns) of every part at once, indexed
  /// by part and sorted, in one pass: rows_by_part(0, rows())[r] ==
  /// rows_of_part(r).
  std::vector<std::vector<index_t>> rows_by_part(index_t lo,
                                                 index_t hi) const;
  std::vector<std::vector<index_t>> cols_by_part(index_t lo,
                                                 index_t hi) const;

  /// (local rows, local cols) held by world rank `w`; {0, 0} when `w`
  /// holds no part.
  std::pair<index_t, index_t> local_shape(int w) const;

 protected:
  Distribution(index_t rows, index_t cols);

 private:
  index_t rows_;
  index_t cols_;
};

class BlockCyclicDist : public Distribution {
 public:
  /// br x bc block-cyclic over `face`, with the block holding row 0 (resp.
  /// column 0) assigned to row part `rsrc` (column part `csrc`).
  BlockCyclicDist(Face2D face, index_t rows, index_t cols, index_t br,
                  index_t bc, int rsrc = 0, int csrc = 0);

  const Face2D& face() const { return face_; }
  index_t br() const { return br_; }
  index_t bc() const { return bc_; }
  int rsrc() const { return rsrc_; }
  int csrc() const { return csrc_; }

  int row_parts() const override { return face_.pr(); }
  int col_parts() const override { return face_.pc(); }
  int part_of_row(index_t i) const override;
  int part_of_col(index_t j) const override;
  int world_rank_of(int rpart, int cpart) const override;
  std::optional<std::pair<int, int>> parts_of_world(int w) const override;

 private:
  Face2D face_;
  index_t br_;
  index_t bc_;
  int rsrc_;
  int csrc_;
};

class Cyclic3DDist : public Distribution {
 public:
  Cyclic3DDist(ProcGrid3D grid, index_t rows, index_t cols);

  const ProcGrid3D& grid() const { return grid_; }

  /// Row parts are indexed rpart = x + p1 * z; column parts by y.
  int row_parts() const override { return grid_.p1() * grid_.p2(); }
  int col_parts() const override { return grid_.p1(); }
  int part_of_row(index_t i) const override;
  int part_of_col(index_t j) const override;
  int world_rank_of(int rpart, int cpart) const override;
  std::optional<std::pair<int, int>> parts_of_world(int w) const override;

 private:
  ProcGrid3D grid_;
};

/// Elementwise cyclic layout (unit blocks) on a face.
std::shared_ptr<BlockCyclicDist> cyclic_on(const Face2D& face, index_t rows,
                                           index_t cols);

/// Rows cyclic over the face's pr, columns in pc contiguous slabs of
/// ceil(cols / pc) — the canonical B layout of the iterative TRSM.
std::shared_ptr<BlockCyclicDist> row_cyclic_col_blocked(const Face2D& face,
                                                        index_t rows,
                                                        index_t cols);

}  // namespace catrsm::dist
