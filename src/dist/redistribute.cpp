#include "dist/redistribute.hpp"

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>

#include "coll/alltoall.hpp"
#include "support/check.hpp"

namespace catrsm::dist {

namespace {

/// Index of `g` within the sorted vector `v` (must be present).
index_t position_of(const std::vector<index_t>& v, index_t g) {
  const auto it = std::lower_bound(v.begin(), v.end(), g);
  CATRSM_ASSERT(it != v.end() && *it == g,
                "dist: global index not owned by this rank");
  return static_cast<index_t>(it - v.begin());
}

/// Every owner of `d` must sit inside `comm` for a collective transition.
void check_owners_inside(const Distribution& d, const sim::Comm& comm,
                         const char* who) {
  for (int rp = 0; rp < d.row_parts(); ++rp)
    for (int cp = 0; cp < d.col_parts(); ++cp)
      CATRSM_CHECK(comm.index_of_world(d.world_rank_of(rp, cp)) >= 0,
                   std::string(who) +
                       ": an owning rank lies outside the communicator");
}

/// Generic element remapping: source element at global (i, j) lands at
/// dst global map(i, j); `inv` is the inverse mapping. The sender emits
/// ascending-(i, j) streams per destination; the receiver consumes each
/// source stream in the same ascending source order, reconstructed from
/// `inv` — so no indices travel with the data. All outgoing streams pack
/// into one slab and ship as per-destination views of it (no per-element
/// push_back growth, no per-destination copies).
DistMatrix remap(const DistMatrix& src,
                 std::shared_ptr<const Distribution> dst,
                 const sim::Comm& comm,
                 const std::function<std::pair<index_t, index_t>(
                     index_t, index_t)>& map,
                 const std::function<std::pair<index_t, index_t>(
                     index_t, index_t)>& inv,
                 const char* who) {
  check_owners_inside(src.dist(), comm, who);
  check_owners_inside(*dst, comm, who);
  const int g = comm.size();
  const int me = comm.ctx().id();

  std::vector<coll::Buffer> outgoing(static_cast<std::size_t>(g));
  if (src.participates()) {
    const auto& rows = src.my_rows();
    const auto& cols = src.my_cols();
    // Pass 1: destination comm rank of every local element, and the
    // per-destination stream lengths.
    std::vector<int> dest(rows.size() * cols.size());
    std::vector<std::size_t> counts(static_cast<std::size_t>(g), 0);
    std::size_t e = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const auto [ti, tj] = map(rows[r], cols[c]);
        const int w = dst->world_rank_of(dst->part_of_row(ti),
                                         dst->part_of_col(tj));
        const int t = comm.index_of_world(w);
        dest[e++] = t;
        ++counts[static_cast<std::size_t>(t)];
      }
    }
    // Pass 2: pack every stream into one slab, ascending (i, j) within
    // each destination exactly as before.
    std::vector<std::size_t> cursor(static_cast<std::size_t>(g) + 1, 0);
    for (int t = 0; t < g; ++t)
      cursor[static_cast<std::size_t>(t) + 1] =
          cursor[static_cast<std::size_t>(t)] +
          counts[static_cast<std::size_t>(t)];
    const std::vector<std::size_t> offsets(cursor.begin(), cursor.end() - 1);
    // Pooled uninitialized slab: the scatter loop below writes every
    // element exactly once, so the old vector's value-init was a pure
    // memset of bytes about to be overwritten.
    coll::Buffer packed = coll::Buffer::uninit(dest.size());
    double* slab = packed.mutable_data();
    e = 0;
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t c = 0; c < cols.size(); ++c)
        slab[cursor[static_cast<std::size_t>(dest[e++])]++] =
            src.local()(static_cast<index_t>(r), static_cast<index_t>(c));
    for (int t = 0; t < g; ++t)
      outgoing[static_cast<std::size_t>(t)] =
          packed.slice(offsets[static_cast<std::size_t>(t)],
                       counts[static_cast<std::size_t>(t)]);
  }

  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing));

  DistMatrix out(std::move(dst), me);
  if (out.participates()) {
    // (source comm rank, source i, source j, my local r, my local c)
    std::vector<std::tuple<int, index_t, index_t, index_t, index_t>> entries;
    entries.reserve(out.my_rows().size() * out.my_cols().size());
    const auto& orows = out.my_rows();
    const auto& ocols = out.my_cols();
    for (std::size_t r = 0; r < orows.size(); ++r) {
      for (std::size_t c = 0; c < ocols.size(); ++c) {
        const auto [si, sj] = inv(orows[r], ocols[c]);
        const int w = src.dist().world_rank_of(src.dist().part_of_row(si),
                                               src.dist().part_of_col(sj));
        entries.emplace_back(comm.index_of_world(w), si, sj,
                             static_cast<index_t>(r),
                             static_cast<index_t>(c));
      }
    }
    std::sort(entries.begin(), entries.end());
    std::vector<std::size_t> cursor(static_cast<std::size_t>(g), 0);
    for (const auto& [s, si, sj, r, c] : entries) {
      auto& cur = cursor[static_cast<std::size_t>(s)];
      CATRSM_ASSERT(cur < incoming[static_cast<std::size_t>(s)].size(),
                    std::string(who) + ": short stream from a source rank");
      out.local()(r, c) = incoming[static_cast<std::size_t>(s)][cur++];
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

}  // namespace

DistMatrix redistribute(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "redistribute: global shape mismatch");
  const auto identity = [](index_t i, index_t j) {
    return std::pair<index_t, index_t>{i, j};
  };
  return remap(src, std::move(dst), comm, identity, identity,
               "redistribute");
}

DistMatrix transpose(const DistMatrix& src,
                     std::shared_ptr<const Distribution> dst,
                     const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->cols() &&
                   src.dist().cols() == dst->rows(),
               "transpose: destination must be cols x rows of the source");
  const auto flip = [](index_t i, index_t j) {
    return std::pair<index_t, index_t>{j, i};
  };
  return remap(src, std::move(dst), comm, flip, flip, "transpose");
}

DistMatrix reverse_rows(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_rows: global shape mismatch");
  const index_t n = src.dist().rows();
  const auto rev = [n](index_t i, index_t j) {
    return std::pair<index_t, index_t>{n - 1 - i, j};
  };
  return remap(src, std::move(dst), comm, rev, rev, "reverse_rows");
}

DistMatrix reverse_both(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_both: global shape mismatch");
  const index_t n = src.dist().rows();
  const index_t k = src.dist().cols();
  const auto rev = [n, k](index_t i, index_t j) {
    return std::pair<index_t, index_t>{n - 1 - i, k - 1 - j};
  };
  return remap(src, std::move(dst), comm, rev, rev, "reverse_both");
}

la::Matrix gather_region(const Distribution& d, const la::Matrix& local,
                         int me, const sim::Comm& comm, index_t rlo,
                         index_t rhi, index_t clo, index_t chi) {
  CATRSM_CHECK(rlo >= 0 && rlo <= rhi && rhi <= d.rows() && clo >= 0 &&
                   clo <= chi && chi <= d.cols(),
               "gather_region: region out of range");
  const int g = comm.size();

  // Per-member in-region index sets, derived identically on every rank.
  std::vector<std::vector<index_t>> rows_in(static_cast<std::size_t>(g));
  std::vector<std::vector<index_t>> cols_in(static_cast<std::size_t>(g));
  coll::Counts counts(static_cast<std::size_t>(g), 0);
  for (int s = 0; s < g; ++s) {
    const auto parts = d.parts_of_world(comm.world_rank(s));
    if (!parts.has_value()) continue;
    for (index_t i = rlo; i < rhi; ++i)
      if (d.part_of_row(i) == parts->first)
        rows_in[static_cast<std::size_t>(s)].push_back(i);
    for (index_t j = clo; j < chi; ++j)
      if (d.part_of_col(j) == parts->second)
        cols_in[static_cast<std::size_t>(s)].push_back(j);
    counts[static_cast<std::size_t>(s)] =
        rows_in[static_cast<std::size_t>(s)].size() *
        cols_in[static_cast<std::size_t>(s)].size();
  }

  // My contribution, read from the (possibly evolved) working copy.
  coll::Buf mine;
  const int self = comm.rank();
  if (counts[static_cast<std::size_t>(self)] > 0) {
    const auto parts = d.parts_of_world(me);
    CATRSM_ASSERT(parts.has_value(), "gather_region: owner mismatch");
    const std::vector<index_t> all_rows = d.rows_of_part(parts->first);
    const std::vector<index_t> all_cols = d.cols_of_part(parts->second);
    mine.reserve(counts[static_cast<std::size_t>(self)]);
    for (const index_t i : rows_in[static_cast<std::size_t>(self)]) {
      const index_t lr = position_of(all_rows, i);
      for (const index_t j : cols_in[static_cast<std::size_t>(self)])
        mine.push_back(local(lr, position_of(all_cols, j)));
    }
  }

  const coll::Buffer all = coll::allgather(comm, std::move(mine), counts);

  la::Matrix out(rhi - rlo, chi - clo);
  std::size_t pos = 0;
  for (int s = 0; s < g; ++s) {
    for (const index_t i : rows_in[static_cast<std::size_t>(s)])
      for (const index_t j : cols_in[static_cast<std::size_t>(s)])
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
  if (sub.participates()) {
    for (std::size_t r = 0; r < sub.my_rows().size(); ++r) {
      const index_t pr_idx = position_of(m.my_rows(), i0 + sub.my_rows()[r]);
      for (std::size_t c = 0; c < sub.my_cols().size(); ++c) {
        const index_t pc_idx =
            position_of(m.my_cols(), j0 + sub.my_cols()[c]);
        sub.local()(static_cast<index_t>(r), static_cast<index_t>(c)) =
            m.local()(pr_idx, pc_idx);
      }
    }
  }
  return sub;
}

void set_cyclic_subblock(DistMatrix& m, index_t i0, index_t j0,
                         const DistMatrix& sub) {
  const BlockCyclicDist& md = as_unit_cyclic(m.dist(), "set_cyclic_subblock");
  (void)md;
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 &&
                   i0 + sub.dist().rows() <= m.dist().rows() &&
                   j0 + sub.dist().cols() <= m.dist().cols(),
               "set_cyclic_subblock: block out of range");
  if (!sub.participates()) return;
  for (std::size_t r = 0; r < sub.my_rows().size(); ++r) {
    const index_t pr_idx = position_of(m.my_rows(), i0 + sub.my_rows()[r]);
    for (std::size_t c = 0; c < sub.my_cols().size(); ++c) {
      const index_t pc_idx = position_of(m.my_cols(), j0 + sub.my_cols()[c]);
      m.local()(pr_idx, pc_idx) =
          sub.local()(static_cast<index_t>(r), static_cast<index_t>(c));
    }
  }
}

}  // namespace catrsm::dist
