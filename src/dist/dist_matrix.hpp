#pragma once
// A distributed matrix as seen by ONE simulated rank: a shared ownership
// descriptor (the Distribution) plus this rank's local block, stored
// row-major over the sorted global indices the rank owns. Ranks outside the
// distribution's face hold an empty 0 x 0 local block and report
// participates() == false — they can still describe, redistribute, and
// collect the matrix. A view can adopt an existing local block (say a
// resident operand's stored block) or start from an uninitialized one that
// its maker writes in full, instead of zero-filling a block first.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "la/matrix.hpp"

namespace catrsm::dist {

class DistMatrix {
 public:
  DistMatrix() = default;

  /// My view of a matrix distributed by `d`; `me` is my world rank. The
  /// local block is allocated (zero-filled) immediately.
  DistMatrix(std::shared_ptr<const Distribution> d, int me);

  /// Same, adopting `local` as my block with no fill or copy. Its shape
  /// must be my part's (0 x 0 when I hold none).
  DistMatrix(std::shared_ptr<const Distribution> d, int me, la::Matrix local);

  /// Same, with a block of unspecified contents (la::Matrix::uninit), for
  /// a result whose every local element is written before it is read.
  static DistMatrix uninit(std::shared_ptr<const Distribution> d, int me);

  const Distribution& dist() const { return *dist_; }
  std::shared_ptr<const Distribution> dist_ptr() const { return dist_; }
  int me() const { return me_; }
  bool participates() const { return participates_; }

  la::Matrix& local() { return local_; }
  const la::Matrix& local() const { return local_; }

  /// Sorted global row (resp. column) indices of my local block.
  const std::vector<index_t>& my_rows() const { return my_rows_; }
  const std::vector<index_t>& my_cols() const { return my_cols_; }

  /// Set every local element from a generator over GLOBAL indices.
  /// No-op for non-participants.
  void fill(const std::function<double(index_t, index_t)>& f);

  /// Set every local element from a full global matrix (shape-checked).
  void fill_from_global(const la::Matrix& global);

 private:
  /// Binds the distribution and my index lists; the block is left 0 x 0.
  DistMatrix(std::shared_ptr<const Distribution> d, int me, std::nullptr_t);

  std::shared_ptr<const Distribution> dist_;
  int me_ = -1;
  bool participates_ = false;
  std::vector<index_t> my_rows_;
  std::vector<index_t> my_cols_;
  la::Matrix local_;
};

}  // namespace catrsm::dist
