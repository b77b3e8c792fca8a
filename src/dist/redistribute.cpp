#include "dist/redistribute.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "coll/alltoall.hpp"
#include "support/check.hpp"

namespace catrsm::dist {

std::vector<int> owner_table(const Distribution& d, const sim::Comm& comm,
                             const char* who) {
  std::vector<int> table(static_cast<std::size_t>(d.row_parts()) *
                         static_cast<std::size_t>(d.col_parts()));
  std::size_t e = 0;
  for (int rp = 0; rp < d.row_parts(); ++rp) {
    for (int cp = 0; cp < d.col_parts(); ++cp) {
      const int t = comm.index_of_world(d.world_rank_of(rp, cp));
      CATRSM_CHECK(t >= 0, std::string(who) +
                               ": an owning rank lies outside the "
                               "communicator");
      table[e++] = t;
    }
  }
  return table;
}

namespace {

/// How remap moves an element: source (i, j) goes to (i, j), or to (j, i)
/// when `transpose`; the destination row (resp. column) index is then
/// mirrored when `reverse_rows` (`reverse_cols`).
struct ElementMap {
  bool transpose = false;
  bool reverse_rows = false;
  bool reverse_cols = false;
};

/// Generic element remapping under `map`. The sender emits each
/// destination's stream in ascending source (i, j); the receiver walks its
/// own elements in the same ascending source order, so every source
/// stream is consumed exactly as packed and no indices travel with the
/// data. The map is separable — a destination row depends on one source
/// index only — so routing is derived once per local row, once per local
/// column and once per (row part, column part): local element (r, c)
/// goes to comm rank dst_owner[row_dest[r] + col_dest[c]] and comes from
/// src_owner[row_src[r] + col_src[c]], O(1) lookups per element.
DistMatrix remap(const DistMatrix& src,
                 std::shared_ptr<const Distribution> dst,
                 const sim::Comm& comm, ElementMap map, const char* who) {
  const Distribution& sd = src.dist();
  const std::vector<int> src_owner = owner_table(sd, comm, who);
  const std::vector<int> dst_owner = owner_table(*dst, comm, who);
  const int g = comm.size();
  const int me = comm.ctx().id();
  const index_t out_rows = dst->rows();
  const index_t out_cols = dst->cols();
  // The mirrors are involutions: they also take a destination index back
  // to the source coordinate it came from.
  const auto mirror_row = [&](index_t a) {
    return map.reverse_rows ? out_rows - 1 - a : a;
  };
  const auto mirror_col = [&](index_t b) {
    return map.reverse_cols ? out_cols - 1 - b : b;
  };
  // Table offset of the part owning destination row `a` or column `b`
  // (resp. source row or column, under `d`); row parts are major.
  const auto row_off = [](const Distribution& d, index_t a) {
    return d.part_of_row(a) * d.col_parts();
  };
  const auto col_off = [](const Distribution& d, index_t b) {
    return d.part_of_col(b);
  };

  std::vector<coll::Buffer> outgoing(static_cast<std::size_t>(g));
  if (src.participates()) {
    const auto& rows = src.my_rows();
    const auto& cols = src.my_cols();
    // Source row i lands in destination row mirror_row(i), or in
    // destination column mirror_col(i) under a transpose; columns dually.
    std::vector<int> row_dest(rows.size());
    std::vector<int> col_dest(cols.size());
    for (std::size_t r = 0; r < rows.size(); ++r)
      row_dest[r] = map.transpose ? col_off(*dst, mirror_col(rows[r]))
                                  : row_off(*dst, mirror_row(rows[r]));
    for (std::size_t c = 0; c < cols.size(); ++c)
      col_dest[c] = map.transpose ? row_off(*dst, mirror_row(cols[c]))
                                  : col_off(*dst, mirror_col(cols[c]));
    std::vector<std::size_t> counts(static_cast<std::size_t>(g), 0);
    for (const int ro : row_dest)
      for (const int co : col_dest)
        ++counts[static_cast<std::size_t>(
            dst_owner[static_cast<std::size_t>(ro + co)])];
    // Pack every stream into one pooled uninitialized slab (the loop below
    // writes each element exactly once), row-major: ascending source
    // (i, j) within each destination.
    std::vector<std::size_t> cursor(static_cast<std::size_t>(g) + 1, 0);
    for (std::size_t t = 0; t < counts.size(); ++t)
      cursor[t + 1] = cursor[t] + counts[t];
    const std::vector<std::size_t> offsets(cursor.begin(), cursor.end() - 1);
    coll::Buffer packed = coll::Buffer::uninit(rows.size() * cols.size());
    double* slab = packed.mutable_data();
    const double* in = src.local().ptr();
    for (const int ro : row_dest)
      for (const int co : col_dest)
        slab[cursor[static_cast<std::size_t>(
            dst_owner[static_cast<std::size_t>(ro + co)])]++] = *in++;
    for (std::size_t t = 0; t < counts.size(); ++t)
      outgoing[t] = packed.slice(offsets[t], counts[t]);
  }

  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing));

  // take() below writes every local element once.
  DistMatrix out = DistMatrix::uninit(std::move(dst), me);
  if (out.participates()) {
    const auto& rows = out.my_rows();
    const auto& cols = out.my_cols();
    const std::size_t nr = rows.size();
    const std::size_t nc = cols.size();
    // Destination row a came from source row mirror_row(a), or from
    // source column mirror_row(a) under a transpose; columns dually.
    std::vector<int> row_src(nr);
    std::vector<int> col_src(nc);
    for (std::size_t r = 0; r < nr; ++r)
      row_src[r] = map.transpose ? col_off(sd, mirror_row(rows[r]))
                                 : row_off(sd, mirror_row(rows[r]));
    for (std::size_t c = 0; c < nc; ++c)
      col_src[c] = map.transpose ? row_off(sd, mirror_col(cols[c]))
                                 : col_off(sd, mirror_col(cols[c]));
    // Read position and end of every source stream.
    std::vector<const double*> next(static_cast<std::size_t>(g));
    std::vector<const double*> last(static_cast<std::size_t>(g));
    for (std::size_t s = 0; s < next.size(); ++s) {
      next[s] = incoming[s].begin();
      last[s] = incoming[s].end();
    }
    double* loc = out.local().ptr();
    const auto take = [&](std::size_t r, std::size_t c) {
      const auto s = static_cast<std::size_t>(
          src_owner[static_cast<std::size_t>(row_src[r] + col_src[c])]);
      CATRSM_ASSERT(next[s] != last[s],
                    std::string(who) + ": short stream from a source rank");
      loc[r * nc + c] = *next[s]++;
    };
    // Ascending source (i, j): a reversed index runs backward, and under
    // a transpose the source row is the destination column, so the walk
    // is column-major.
    const auto row_at = [&](std::size_t u) {
      return map.reverse_rows ? nr - 1 - u : u;
    };
    const auto col_at = [&](std::size_t v) {
      return map.reverse_cols ? nc - 1 - v : v;
    };
    if (map.transpose) {
      for (std::size_t v = 0; v < nc; ++v)
        for (std::size_t u = 0; u < nr; ++u) take(row_at(u), col_at(v));
    } else {
      for (std::size_t u = 0; u < nr; ++u)
        for (std::size_t v = 0; v < nc; ++v) take(row_at(u), col_at(v));
    }
  }
  return out;
}

const BlockCyclicDist& as_unit_cyclic(const Distribution& d,
                                      const char* who) {
  const auto* bc = dynamic_cast<const BlockCyclicDist*>(&d);
  CATRSM_CHECK(bc != nullptr && bc->br() == 1 && bc->bc() == 1,
               std::string(who) + ": requires a unit-block cyclic layout");
  return *bc;
}

/// Where a cyclic window's local indices `inner` (window coordinates,
/// offset `off`) start within the enclosing matrix's local indices
/// `outer`: the window holds exactly the enclosing rank's indices inside
/// it, so its elements are one contiguous run of the enclosing local
/// block. Checked once per index, not per element.
index_t window_start(const std::vector<index_t>& outer,
                     const std::vector<index_t>& inner, index_t off,
                     const char* who) {
  const auto start =
      std::lower_bound(outer.begin(), outer.end(), off) - outer.begin();
  CATRSM_CHECK(
      inner.size() <= outer.size() - static_cast<std::size_t>(start) &&
          std::equal(inner.begin(), inner.end(), outer.begin() + start,
                     [off](index_t i, index_t o) { return off + i == o; }),
      std::string(who) + ": block is not a window of this layout");
  return static_cast<index_t>(start);
}

}  // namespace

DistMatrix redistribute(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "redistribute: global shape mismatch");
  return remap(src, std::move(dst), comm, {}, "redistribute");
}

DistMatrix transpose(const DistMatrix& src,
                     std::shared_ptr<const Distribution> dst,
                     const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->cols() &&
                   src.dist().cols() == dst->rows(),
               "transpose: destination must be cols x rows of the source");
  return remap(src, std::move(dst), comm, {.transpose = true}, "transpose");
}

DistMatrix reverse_rows(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_rows: global shape mismatch");
  return remap(src, std::move(dst), comm, {.reverse_rows = true},
               "reverse_rows");
}

DistMatrix reverse_both(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_both: global shape mismatch");
  return remap(src, std::move(dst), comm,
               {.reverse_rows = true, .reverse_cols = true}, "reverse_both");
}

la::Matrix gather_region(const Distribution& d, const la::Matrix& local,
                         int me, const sim::Comm& comm, index_t rlo,
                         index_t rhi, index_t clo, index_t chi) {
  CATRSM_CHECK(rlo >= 0 && rlo <= rhi && rhi <= d.rows() && clo >= 0 &&
                   clo <= chi && chi <= d.cols(),
               "gather_region: region out of range");
  const int g = comm.size();

  // In-region rows (resp. columns) of every part, ascending, derived
  // identically on every rank with one ownership call per index.
  const auto rows_in = d.rows_by_part(rlo, rhi);
  const auto cols_in = d.cols_by_part(clo, chi);
  std::vector<std::optional<std::pair<int, int>>> parts(
      static_cast<std::size_t>(g));
  coll::Counts counts(static_cast<std::size_t>(g), 0);
  for (int s = 0; s < g; ++s) {
    const auto& ps = parts[static_cast<std::size_t>(s)] =
        d.parts_of_world(comm.world_rank(s));
    if (ps.has_value())
      counts[static_cast<std::size_t>(s)] =
          rows_in[static_cast<std::size_t>(ps->first)].size() *
          cols_in[static_cast<std::size_t>(ps->second)].size();
  }

  // My contribution, read from the (possibly evolved) working copy. My
  // local rows are my part's rows ascending, so the in-region ones are the
  // contiguous run after those below rlo (columns likewise).
  coll::Buf mine;
  const auto& my_parts = parts[static_cast<std::size_t>(comm.rank())];
  if (counts[static_cast<std::size_t>(comm.rank())] > 0) {
    CATRSM_ASSERT(my_parts == d.parts_of_world(me),
                  "gather_region: owner mismatch");
    index_t r0 = 0;
    index_t c0 = 0;
    for (index_t i = 0; i < rlo; ++i)
      if (d.part_of_row(i) == my_parts->first) ++r0;
    for (index_t j = 0; j < clo; ++j)
      if (d.part_of_col(j) == my_parts->second) ++c0;
    const auto nr = static_cast<index_t>(
        rows_in[static_cast<std::size_t>(my_parts->first)].size());
    const auto nc = static_cast<index_t>(
        cols_in[static_cast<std::size_t>(my_parts->second)].size());
    CATRSM_ASSERT(r0 + nr <= local.rows() && c0 + nc <= local.cols(),
                  "gather_region: working copy smaller than the layout");
    mine.reserve(counts[static_cast<std::size_t>(comm.rank())]);
    for (index_t r = 0; r < nr; ++r) {
      const double* row = local.ptr() + (r0 + r) * local.cols() + c0;
      mine.insert(mine.end(), row, row + nc);
    }
  }

  const coll::Buffer all = coll::allgather(comm, std::move(mine), counts);

  // The parts tile the region, so every element of `out` is written.
  auto out = la::Matrix::uninit(rhi - rlo, chi - clo);
  std::size_t pos = 0;
  for (const auto& ps : parts) {
    if (!ps.has_value()) continue;
    for (const index_t i : rows_in[static_cast<std::size_t>(ps->first)])
      for (const index_t j : cols_in[static_cast<std::size_t>(ps->second)])
        out(i - rlo, j - clo) = all[pos++];
  }
  CATRSM_ASSERT(pos == all.size(), "gather_region: stream size mismatch");
  return out;
}

la::Matrix collect(const DistMatrix& m, const sim::Comm& comm) {
  return gather_region(m.dist(), m.local(), m.me(), comm, 0, m.dist().rows(),
                       0, m.dist().cols());
}

DistMatrix cyclic_subblock(const DistMatrix& m, index_t i0, index_t j0,
                           index_t rows, index_t cols) {
  const BlockCyclicDist& md = as_unit_cyclic(m.dist(), "cyclic_subblock");
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 && i0 + rows <= md.rows() &&
                   j0 + cols <= md.cols(),
               "cyclic_subblock: block out of range");
  const int pr = md.face().pr();
  const int pc = md.face().pc();
  auto sub_d = std::make_shared<BlockCyclicDist>(
      md.face(), rows, cols, 1, 1,
      static_cast<int>((md.rsrc() + i0) % pr),
      static_cast<int>((md.csrc() + j0) % pc));
  DistMatrix sub(std::move(sub_d), m.me());
  if (sub.participates())
    sub.local() = m.local().block(
        window_start(m.my_rows(), sub.my_rows(), i0, "cyclic_subblock"),
        window_start(m.my_cols(), sub.my_cols(), j0, "cyclic_subblock"),
        sub.local().rows(), sub.local().cols());
  return sub;
}

void set_cyclic_subblock(DistMatrix& m, index_t i0, index_t j0,
                         const DistMatrix& sub) {
  (void)as_unit_cyclic(m.dist(), "set_cyclic_subblock");
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 &&
                   i0 + sub.dist().rows() <= m.dist().rows() &&
                   j0 + sub.dist().cols() <= m.dist().cols(),
               "set_cyclic_subblock: block out of range");
  if (!sub.participates()) return;
  m.local().set_block(
      window_start(m.my_rows(), sub.my_rows(), i0, "set_cyclic_subblock"),
      window_start(m.my_cols(), sub.my_cols(), j0, "set_cyclic_subblock"),
      sub.local());
}

}  // namespace catrsm::dist
