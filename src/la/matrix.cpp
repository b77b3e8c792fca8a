#include "la/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "support/env.hpp"

namespace catrsm::la {

namespace {
std::atomic<bool> g_poison{env::flag_or("CATRSM_SLAB_POISON", false)};
}  // namespace

bool uninit_poison() { return g_poison.load(std::memory_order_relaxed); }

void set_uninit_poison(bool enabled) {
  g_poison.store(enabled, std::memory_order_relaxed);
}

Matrix::Matrix(index_t rows, index_t cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), 0.0) {
  CATRSM_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
}

Matrix Matrix::uninit(index_t rows, index_t cols) {
  CATRSM_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
  Matrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.data_ = aligned_vector(static_cast<std::size_t>(rows * cols));
  if (uninit_poison())
    std::fill(out.data_.begin(), out.data_.end(),
              std::numeric_limits<double>::quiet_NaN());
  return out;
}

Matrix::Matrix(index_t rows, index_t cols, std::span<const double> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  CATRSM_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
  CATRSM_CHECK(static_cast<index_t>(data_.size()) == rows * cols,
               "matrix data size does not match dims");
}

Matrix Matrix::block(index_t i0, index_t j0, index_t r, index_t c) const {
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 && r >= 0 && c >= 0 && i0 + r <= rows_ &&
                   j0 + c <= cols_,
               "block out of range");
  Matrix out(r, c);
  for (index_t i = 0; i < r; ++i) {
    const double* src = ptr() + (i0 + i) * cols_ + j0;
    double* dst = out.ptr() + i * c;
    std::copy(src, src + c, dst);
  }
  return out;
}

void Matrix::set_block(index_t i0, index_t j0, const Matrix& src) {
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 && i0 + src.rows() <= rows_ &&
                   j0 + src.cols() <= cols_,
               "set_block out of range");
  for (index_t i = 0; i < src.rows(); ++i) {
    const double* s = src.ptr() + i * src.cols();
    double* d = ptr() + (i0 + i) * cols_ + j0;
    std::copy(s, s + src.cols(), d);
  }
}

void Matrix::add(const Matrix& other) {
  CATRSM_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "add: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::sub(const Matrix& other) {
  CATRSM_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
               "sub: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::scale(double s) {
  for (double& v : data_) v *= s;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (index_t i = 0; i < rows_; ++i)
    for (index_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

bool Matrix::equals(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

Matrix Matrix::identity(index_t n) {
  Matrix out(n, n);
  for (index_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::zeros(index_t rows, index_t cols) { return Matrix(rows, cols); }

}  // namespace catrsm::la
