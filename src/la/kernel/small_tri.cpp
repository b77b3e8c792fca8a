#include "la/kernel/small_tri.hpp"

namespace catrsm::la::kernel {

void trsm_ll_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit) {
  for (index_t i = 0; i < nb; ++i) {
    double* bi = b + i * ldb;
    for (index_t j = 0; j < i; ++j) {
      const double lij = t[i * ldt + j];
      const double* bj = b + j * ldb;
      for (index_t c = 0; c < k; ++c) bi[c] -= lij * bj[c];
    }
    if (!unit) {
      const double inv = 1.0 / t[i * ldt + i];
      for (index_t c = 0; c < k; ++c) bi[c] *= inv;
    }
  }
}

void trsm_lu_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit) {
  for (index_t i = nb - 1; i >= 0; --i) {
    double* bi = b + i * ldb;
    for (index_t j = i + 1; j < nb; ++j) {
      const double uij = t[i * ldt + j];
      const double* bj = b + j * ldb;
      for (index_t c = 0; c < k; ++c) bi[c] -= uij * bj[c];
    }
    if (!unit) {
      const double inv = 1.0 / t[i * ldt + i];
      for (index_t c = 0; c < k; ++c) bi[c] *= inv;
    }
  }
}

void trsm_ru_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t m, index_t nb, bool unit) {
  // Row i of X solves independently against T; walking rows outer keeps
  // every inner access on b's contiguous row. Four rows at a time give the
  // core four independent chains instead of one, and each row keeps the
  // one-row loop's operation order, so every result is bitwise the same.
  index_t i = 0;
  for (; i + 4 <= m; i += 4) {
    double* b0 = b + i * ldb;
    double* b1 = b0 + ldb;
    double* b2 = b1 + ldb;
    double* b3 = b2 + ldb;
    for (index_t j = 0; j < nb; ++j) {
      double s0 = b0[j], s1 = b1[j], s2 = b2[j], s3 = b3[j];
      for (index_t l = 0; l < j; ++l) {
        const double tlj = t[l * ldt + j];
        s0 -= b0[l] * tlj;
        s1 -= b1[l] * tlj;
        s2 -= b2[l] * tlj;
        s3 -= b3[l] * tlj;
      }
      if (unit) {
        b0[j] = s0;
        b1[j] = s1;
        b2[j] = s2;
        b3[j] = s3;
      } else {
        const double d = t[j * ldt + j];
        b0[j] = s0 / d;
        b1[j] = s1 / d;
        b2[j] = s2 / d;
        b3[j] = s3 / d;
      }
    }
  }
  for (; i < m; ++i) {
    double* bi = b + i * ldb;
    for (index_t j = 0; j < nb; ++j) {
      double s = bi[j];
      for (index_t l = 0; l < j; ++l) s -= bi[l] * t[l * ldt + j];
      bi[j] = unit ? s : s / t[j * ldt + j];
    }
  }
}

void trsm_rl_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t m, index_t nb, bool unit) {
  for (index_t i = 0; i < m; ++i) {
    double* bi = b + i * ldb;
    for (index_t j = nb - 1; j >= 0; --j) {
      double s = bi[j];
      for (index_t l = j + 1; l < nb; ++l) s -= bi[l] * t[l * ldt + j];
      bi[j] = unit ? s : s / t[j * ldt + j];
    }
  }
}

void trmm_ll_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit) {
  // Row i of the product reads rows <= i of B: walk bottom-up to stay in
  // place.
  for (index_t i = nb - 1; i >= 0; --i) {
    double* bi = b + i * ldb;
    if (!unit) {
      const double dii = t[i * ldt + i];
      for (index_t c = 0; c < k; ++c) bi[c] *= dii;
    }
    for (index_t j = 0; j < i; ++j) {
      const double tij = t[i * ldt + j];
      const double* bj = b + j * ldb;
      for (index_t c = 0; c < k; ++c) bi[c] += tij * bj[c];
    }
  }
}

void trmm_lu_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit) {
  // Row i reads rows >= i: walk top-down.
  for (index_t i = 0; i < nb; ++i) {
    double* bi = b + i * ldb;
    if (!unit) {
      const double dii = t[i * ldt + i];
      for (index_t c = 0; c < k; ++c) bi[c] *= dii;
    }
    for (index_t j = i + 1; j < nb; ++j) {
      const double tij = t[i * ldt + j];
      const double* bj = b + j * ldb;
      for (index_t c = 0; c < k; ++c) bi[c] += tij * bj[c];
    }
  }
}

void tri_inv_ll_block(const double* t, index_t ldt, double* inv, index_t ldi,
                      index_t nb) {
  for (index_t j = 0; j < nb; ++j) {
    inv[j * ldi + j] = 1.0 / t[j * ldt + j];
    for (index_t i = j + 1; i < nb; ++i) {
      double s = 0.0;
      for (index_t l = j; l < i; ++l) s += t[i * ldt + l] * inv[l * ldi + j];
      inv[i * ldi + j] = -s / t[i * ldt + i];
    }
  }
}

void tri_inv_uu_block(const double* t, index_t ldt, double* inv, index_t ldi,
                      index_t nb) {
  for (index_t j = 0; j < nb; ++j) {
    inv[j * ldi + j] = 1.0 / t[j * ldt + j];
    for (index_t i = j - 1; i >= 0; --i) {
      double s = 0.0;
      for (index_t l = i + 1; l <= j; ++l)
        s += t[i * ldt + l] * inv[l * ldi + j];
      inv[i * ldi + j] = -s / t[i * ldt + i];
    }
  }
}

}  // namespace catrsm::la::kernel
