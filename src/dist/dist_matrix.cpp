#include "dist/dist_matrix.hpp"

#include "support/check.hpp"

namespace catrsm::dist {

DistMatrix::DistMatrix(std::shared_ptr<const Distribution> d, int me,
                       std::nullptr_t)
    : dist_(std::move(d)), me_(me) {
  CATRSM_CHECK(dist_ != nullptr, "DistMatrix: null distribution");
  const auto parts = dist_->parts_of_world(me_);
  participates_ = parts.has_value();
  if (participates_) {
    my_rows_ = dist_->rows_of_part(parts->first);
    my_cols_ = dist_->cols_of_part(parts->second);
  }
}

DistMatrix::DistMatrix(std::shared_ptr<const Distribution> d, int me)
    : DistMatrix(std::move(d), me, nullptr) {
  local_ = la::Matrix(static_cast<index_t>(my_rows_.size()),
                      static_cast<index_t>(my_cols_.size()));
}

DistMatrix::DistMatrix(std::shared_ptr<const Distribution> d, int me,
                       la::Matrix local)
    : DistMatrix(std::move(d), me, nullptr) {
  CATRSM_CHECK(local.rows() == static_cast<index_t>(my_rows_.size()) &&
                   local.cols() == static_cast<index_t>(my_cols_.size()),
               "DistMatrix: local block does not match my part's shape (a "
               "resident operand's stored block that was never written?)");
  local_ = std::move(local);
}

DistMatrix DistMatrix::uninit(std::shared_ptr<const Distribution> d,
                              int me) {
  DistMatrix out(std::move(d), me, nullptr);
  out.local_ = la::Matrix::uninit(static_cast<index_t>(out.my_rows_.size()),
                                  static_cast<index_t>(out.my_cols_.size()));
  return out;
}

void DistMatrix::fill(const std::function<double(index_t, index_t)>& f) {
  for (std::size_t r = 0; r < my_rows_.size(); ++r)
    for (std::size_t c = 0; c < my_cols_.size(); ++c)
      local_(static_cast<index_t>(r), static_cast<index_t>(c)) =
          f(my_rows_[r], my_cols_[c]);
}

void DistMatrix::fill_from_global(const la::Matrix& global) {
  CATRSM_CHECK(global.rows() == dist_->rows() &&
                   global.cols() == dist_->cols(),
               "fill_from_global: shape mismatch with distribution");
  fill([&](index_t i, index_t j) { return global(i, j); });
}

}  // namespace catrsm::dist
