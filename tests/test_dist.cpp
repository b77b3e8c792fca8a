// Tests for processor grids, distributions, distributed matrices, and the
// generic redistribution engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>

#include "coll/alltoall.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/grid.hpp"
#include "dist/layout.hpp"
#include "dist/redistribute.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "sim/check/trace.hpp"
#include "sim/machine.hpp"

namespace catrsm::dist {
namespace {

using la::Matrix;
using sim::Comm;
using sim::Machine;
using sim::Rank;

TEST(Grid, Face2DPositionsAndFibers) {
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    EXPECT_EQ(face.at(face.my_gi(), face.my_gj()), r.id());
    Comm row = face.row_comm();
    EXPECT_EQ(row.size(), 3);
    Comm col = face.col_comm();
    EXPECT_EQ(col.size(), 2);
    // Row comm is ordered by gj, so my index equals my gj.
    EXPECT_EQ(row.rank(), face.my_gj());
    EXPECT_EQ(col.rank(), face.my_gi());
  });
}

TEST(Grid, ProcGrid3DFibersContainSelf) {
  Machine m(2 * 2 * 3);
  m.run([](Rank& r) {
    ProcGrid3D g(Comm::world(r), 2, 3);
    EXPECT_EQ(g.at(g.my_x(), g.my_y(), g.my_z()), r.id());
    EXPECT_EQ(g.x_fiber().size(), 2);
    EXPECT_EQ(g.y_fiber().size(), 2);
    EXPECT_EQ(g.z_fiber().size(), 3);
    EXPECT_EQ(g.x_fiber().rank(), g.my_x());
    EXPECT_EQ(g.y_fiber().rank(), g.my_y());
    EXPECT_EQ(g.z_fiber().rank(), g.my_z());
  });
}

TEST(Grid, BalancedFactors) {
  EXPECT_EQ(balanced_factors(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(balanced_factors(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(balanced_factors(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(balanced_factors(1), (std::pair<int, int>{1, 1}));
}

TEST(Layout, BlockCyclicOwnershipPartition) {
  // Every element has exactly one owner and local shapes tile the matrix.
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    BlockCyclicDist d(face, 11, 13, 2, 3);
    index_t total = 0;
    for (int w = 0; w < 6; ++w) {
      const auto shape = d.local_shape(w);
      total += shape.first * shape.second;
    }
    EXPECT_EQ(total, 11 * 13);
    // parts_of_world and world_rank_of are inverse.
    const auto parts = d.parts_of_world(r.id());
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(d.world_rank_of(parts->first, parts->second), r.id());
  });
}

TEST(Layout, CyclicIsBlockCyclicWithUnitBlocks) {
  Machine m(4);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 2);
    auto d = cyclic_on(face, 8, 8);
    EXPECT_EQ(d->part_of_row(5), 1);
    EXPECT_EQ(d->part_of_col(6), 0);
    const auto rows = d->rows_of_part(1);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0], 1);
    EXPECT_EQ(rows[3], 7);
  });
}

TEST(Layout, RowCyclicColBlockedSlabs) {
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    auto d = row_cyclic_col_blocked(face, 10, 9);
    // Columns fall into 3 contiguous slabs of 3.
    EXPECT_EQ(d->part_of_col(0), 0);
    EXPECT_EQ(d->part_of_col(2), 0);
    EXPECT_EQ(d->part_of_col(3), 1);
    EXPECT_EQ(d->part_of_col(8), 2);
    EXPECT_EQ(d->part_of_row(7), 1);
  });
}

TEST(Layout, Cyclic3DOwnershipPartition) {
  Machine m(2 * 2 * 2);
  m.run([](Rank& r) {
    ProcGrid3D g(Comm::world(r), 2, 2);
    Cyclic3DDist d(g, 9, 7);
    index_t total = 0;
    for (int w = 0; w < 8; ++w) {
      const auto shape = d.local_shape(w);
      total += shape.first * shape.second;
    }
    EXPECT_EQ(total, 9 * 7);
    const auto parts = d.parts_of_world(r.id());
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(d.world_rank_of(parts->first, parts->second), r.id());
    // Row ownership: i = 5 has x = 1, z = (5/2) % 2 = 0 -> rpart = 1.
    EXPECT_EQ(d.part_of_row(5), 1);
  });
}

TEST(DistMatrix, FillAndCollectRoundTrip) {
  const index_t n = 12, k = 9;
  Machine m(6);
  const Matrix ref = la::make_dense(33, n, k);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 3);
    auto d = std::make_shared<BlockCyclicDist>(face, n, k, 2, 2);
    DistMatrix dm(d, r.id());
    dm.fill([&](index_t i, index_t j) { return ref(i, j); });
    Matrix got = collect(dm, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

TEST(DistMatrix, LocalRowsColsAreSortedGlobals) {
  Machine m(4);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 2);
    auto d = std::make_shared<BlockCyclicDist>(face, 10, 10, 3, 3);
    DistMatrix dm(d, r.id());
    const auto& rows = dm.my_rows();
    for (std::size_t i = 1; i < rows.size(); ++i)
      EXPECT_LT(rows[i - 1], rows[i]);
  });
}

struct RedistCase {
  int p;
  index_t rows, cols;
  index_t src_br, src_bc;
  index_t dst_br, dst_bc;
};

class RedistSweep : public ::testing::TestWithParam<RedistCase> {};

TEST_P(RedistSweep, PreservesEveryElement) {
  const RedistCase tc = GetParam();
  Machine m(tc.p);
  const Matrix ref = la::make_dense(77, tc.rows, tc.cols);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    const auto [pr, pc] = balanced_factors(tc.p);
    Face2D face(world, pr, pc);
    auto src_d = std::make_shared<BlockCyclicDist>(face, tc.rows, tc.cols,
                                                   tc.src_br, tc.src_bc);
    // Destination face deliberately transposed to force real movement.
    Face2D dface(world, pc, pr);
    auto dst_d = std::make_shared<BlockCyclicDist>(dface, tc.rows, tc.cols,
                                                   tc.dst_br, tc.dst_bc);
    DistMatrix src(src_d, r.id());
    src.fill_from_global(ref);
    DistMatrix dst = redistribute(src, dst_d, world);
    Matrix got = collect(dst, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedistSweep,
    ::testing::Values(RedistCase{1, 5, 5, 1, 1, 2, 2},
                      RedistCase{4, 8, 8, 1, 1, 2, 2},
                      RedistCase{4, 9, 7, 1, 1, 4, 4},
                      RedistCase{6, 12, 10, 2, 1, 1, 3},
                      RedistCase{8, 16, 16, 1, 1, 16, 16},
                      RedistCase{12, 13, 11, 3, 2, 1, 1},
                      RedistCase{16, 32, 8, 1, 1, 2, 2}));

TEST(Redistribute, CyclicToCyclic3DAndBack) {
  const index_t n = 12;
  const int p1 = 2, p2 = 2;
  Machine m(p1 * p1 * p2);
  const Matrix ref = la::make_lower_triangular(88, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    const auto [pr, pc] = balanced_factors(world.size());
    Face2D face(world, pr, pc);
    auto c2d = cyclic_on(face, n, n);
    DistMatrix src(c2d, r.id());
    src.fill_from_global(ref);

    ProcGrid3D g(world, p1, p2);
    auto c3d = std::make_shared<Cyclic3DDist>(g, n, n);
    DistMatrix mid = redistribute(src, c3d, world);
    DistMatrix back = redistribute(mid, c2d, world);
    EXPECT_LT(la::max_abs_diff(collect(back, world), ref), 1e-15);
  });
}

TEST(Redistribute, SubsetFacesInsideLargerComm) {
  // Source lives on ranks {0,1}, destination on ranks {2,3}; the exchange
  // happens over the full world.
  const index_t n = 6;
  Machine m(4);
  const Matrix ref = la::make_dense(111, n, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D src_face(Comm(world.ctx(), {0, 1}), 1, 2);
    Face2D dst_face(Comm(world.ctx(), {2, 3}), 2, 1);
    auto src_d = std::make_shared<BlockCyclicDist>(src_face, n, n, 1, 1);
    auto dst_d = std::make_shared<BlockCyclicDist>(dst_face, n, n, 1, 1);
    DistMatrix src(src_d, r.id());
    if (src.participates()) src.fill_from_global(ref);
    DistMatrix dst = redistribute(src, dst_d, world);
    EXPECT_EQ(dst.participates(), r.id() >= 2);
    Matrix got = collect(dst, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

// --- Wire order ------------------------------------------------------------
// A transition's streams carry no indices, so sender and receiver must agree
// on one element order: ascending source (i, j) per destination. Value tests
// pass under any order both sides agree on, and modeled counters ignore
// order, so these tests pin the order itself. Each transition runs traced
// next to a test-local elementwise reference; the traces (payload hashes
// included) must not differ and the local blocks must be bitwise equal.

enum class Transition { kRedistribute, kTranspose, kReverseRows, kReverseBoth };

const char* name_of(Transition t) {
  switch (t) {
    case Transition::kRedistribute: return "redistribute";
    case Transition::kTranspose: return "transpose";
    case Transition::kReverseRows: return "reverse_rows";
    case Transition::kReverseBoth: return "reverse_both";
  }
  return "?";
}

/// Where element (i, j) of a rows x cols source lands under `t`.
std::pair<index_t, index_t> target_of(Transition t, index_t i, index_t j,
                                      index_t rows, index_t cols) {
  switch (t) {
    case Transition::kRedistribute: return {i, j};
    case Transition::kTranspose: return {j, i};
    case Transition::kReverseRows: return {rows - 1 - i, j};
    case Transition::kReverseBoth: return {rows - 1 - i, cols - 1 - j};
  }
  return {i, j};
}

DistMatrix run_transition(Transition t, const DistMatrix& src,
                          std::shared_ptr<const Distribution> dst,
                          const Comm& comm) {
  switch (t) {
    case Transition::kRedistribute: return redistribute(src, dst, comm);
    case Transition::kTranspose: return transpose(src, dst, comm);
    case Transition::kReverseRows: return reverse_rows(src, dst, comm);
    case Transition::kReverseBoth: return reverse_both(src, dst, comm);
  }
  return {};
}

/// Elementwise reference: walk global source (i, j) ascending, push each
/// element I own onto the stream of its destination owner, exchange, and
/// unpack by the same walk.
DistMatrix reference_transition(Transition t, const DistMatrix& src,
                                std::shared_ptr<const Distribution> dst,
                                const Comm& comm) {
  const Distribution& sd = src.dist();
  const index_t rows = sd.rows();
  const index_t cols = sd.cols();
  const auto owner = [&](const Distribution& d, index_t i, index_t j) {
    return comm.index_of_world(
        d.world_rank_of(d.part_of_row(i), d.part_of_col(j)));
  };
  const auto local_of = [](const std::vector<index_t>& v, index_t g) {
    return static_cast<index_t>(std::find(v.begin(), v.end(), g) -
                                v.begin());
  };
  std::vector<coll::Buf> out(static_cast<std::size_t>(comm.size()));
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) {
      if (owner(sd, i, j) != comm.rank()) continue;
      const auto [ti, tj] = target_of(t, i, j, rows, cols);
      out[static_cast<std::size_t>(owner(*dst, ti, tj))].push_back(
          src.local()(local_of(src.my_rows(), i), local_of(src.my_cols(), j)));
    }
  const std::vector<coll::Buffer> in = coll::alltoallv(comm, std::move(out));
  DistMatrix res(dst, comm.ctx().id());
  std::vector<std::size_t> cursor(in.size(), 0);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) {
      const auto [ti, tj] = target_of(t, i, j, rows, cols);
      if (owner(*dst, ti, tj) != comm.rank()) continue;
      const auto s = static_cast<std::size_t>(owner(sd, i, j));
      res.local()(local_of(res.my_rows(), ti), local_of(res.my_cols(), tj)) =
          in[s][cursor[s]++];
    }
  return res;
}

struct WireCase {
  const char* name;
  int p;
  index_t rows, cols;  // source shape
  std::function<DistMatrix(const Comm& world)> make_src;
  /// Destination layout of shape rows x cols.
  std::function<std::shared_ptr<const Distribution>(const Comm& world,
                                                    index_t rows,
                                                    index_t cols)>
      make_dst;
};

/// A distinct value at every global (i, j).
double wire_value(index_t i, index_t j) {
  return static_cast<double>(i * 1000 + j) + 0.25;
}

DistMatrix filled(std::shared_ptr<const Distribution> d, const Comm& world) {
  DistMatrix m(std::move(d), world.ctx().id());
  m.fill(wire_value);
  return m;
}

std::vector<WireCase> wire_cases() {
  const index_t rows = 11, cols = 7;
  return {
      {"cyclic_to_transposed_face", 6, rows, cols,
       [=](const Comm& w) { return filled(cyclic_on(Face2D(w, 2, 3), rows,
                                                    cols), w); },
       [](const Comm& w, index_t r, index_t c) {
         return cyclic_on(Face2D(w, 3, 2), r, c);
       }},
      {"block_cyclic_2x3_to_cyclic", 6, rows, cols,
       [=](const Comm& w) {
         return filled(std::make_shared<BlockCyclicDist>(Face2D(w, 2, 3),
                                                         rows, cols, 2, 3),
                       w);
       },
       [](const Comm& w, index_t r, index_t c) {
         return cyclic_on(Face2D(w, 2, 3), r, c);
       }},
      {"shifted_window_to_row_cyclic_col_blocked", 6, rows, cols,
       [=](const Comm& w) {
         const DistMatrix big =
             filled(cyclic_on(Face2D(w, 2, 3), rows + 3, cols + 4), w);
         return cyclic_subblock(big, 1, 2, rows, cols);
       },
       [](const Comm& w, index_t r, index_t c) {
         return row_cyclic_col_blocked(Face2D(w, 2, 3), r, c);
       }},
      {"cyclic_to_cyclic3d", 8, rows, cols,
       [=](const Comm& w) { return filled(cyclic_on(Face2D(w, 2, 4), rows,
                                                    cols), w); },
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<Cyclic3DDist>(ProcGrid3D(w, 2, 2), r, c);
       }},
      // Source on ranks {0, 1, 2}, destination on {3, 4}; rank 5 holds
      // neither, and every rank joins the exchange over the world.
      {"disjoint_subset_faces", 6, rows, cols,
       [=](const Comm& w) {
         return filled(cyclic_on(Face2D(Comm(w.ctx(), {0, 1, 2}), 1, 3),
                                 rows, cols),
                       w);
       },
       [](const Comm& w, index_t r, index_t c) {
         return cyclic_on(Face2D(Comm(w.ctx(), {3, 4}), 2, 1), r, c);
       }},
  };
}

class WireOrder : public ::testing::TestWithParam<WireCase> {};

TEST_P(WireOrder, MatchesElementwiseReference) {
  const WireCase& tc = GetParam();
  Machine m(tc.p);
  m.set_tracing(true, /*capture_payloads=*/false);
  for (const Transition t :
       {Transition::kRedistribute, Transition::kTranspose,
        Transition::kReverseRows, Transition::kReverseBoth}) {
    const bool flip = t == Transition::kTranspose;
    // One traced run of the library's transition (or the reference's),
    // keeping every rank's resulting local block.
    const auto traced = [&](bool reference, std::vector<Matrix>& locals) {
      locals.assign(static_cast<std::size_t>(tc.p), Matrix());
      m.run([&](Rank& r) {
        Comm world = Comm::world(r);
        const DistMatrix src = tc.make_src(world);
        const auto dst = tc.make_dst(world, flip ? tc.cols : tc.rows,
                                     flip ? tc.rows : tc.cols);
        const DistMatrix out =
            reference ? reference_transition(t, src, dst, world)
                      : run_transition(t, src, dst, world);
        locals[static_cast<std::size_t>(r.id())] = out.local();
      });
      return m.take_trace();
    };
    std::vector<Matrix> got;
    std::vector<Matrix> want;
    const sim::check::Trace lib = traced(false, got);
    const sim::check::Trace ref = traced(true, want);
    std::size_t sends = 0;
    for (const auto& events : lib.events)
      for (const auto& e : events)
        if ((e.kind == sim::check::EventKind::kSend ||
             e.kind == sim::check::EventKind::kShift) &&
            e.words > 0)
          ++sends;
    EXPECT_GT(sends, 0u) << name_of(t) << ": nothing crossed the wire";
    EXPECT_EQ(sim::check::diff(lib, ref), "") << name_of(t);
    for (int w = 0; w < tc.p; ++w)
      EXPECT_TRUE(got[static_cast<std::size_t>(w)].equals(
          want[static_cast<std::size_t>(w)]))
          << name_of(t) << ": rank " << w << " holds different elements";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Redistribute, WireOrder, ::testing::ValuesIn(wire_cases()),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      return std::string(info.param.name);
    });

TEST(GatherRegion, AssemblesArbitrarySubBlocksEverywhere) {
  const index_t n = 14, k = 11;
  Machine m(6);
  const Matrix ref = la::make_dense(123, n, k);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 3);
    auto d = std::make_shared<BlockCyclicDist>(face, n, k, 2, 1);
    DistMatrix dm(d, r.id());
    dm.fill_from_global(ref);
    for (const auto& [rlo, rhi, clo, chi] :
         std::vector<std::array<index_t, 4>>{
             {0, n, 0, k}, {3, 9, 2, 7}, {5, 6, 0, 1}, {0, 1, 10, 11}}) {
      const Matrix got = gather_region(dm.dist(), dm.local(), dm.me(), world,
                                       rlo, rhi, clo, chi);
      EXPECT_LT(la::max_abs_diff(got, ref.block(rlo, clo, rhi - rlo,
                                                chi - clo)),
                1e-15);
    }
  });
}

TEST(GatherRegion, WorkingCopyOverridesStoredValues) {
  // The `local` argument may be a working copy that evolved past the
  // DistMatrix — gather must read it, not the original.
  const index_t n = 8;
  Machine m(4);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 2);
    auto d = dist::cyclic_on(face, n, n);
    DistMatrix dm(d, r.id());
    dm.fill([](index_t, index_t) { return 1.0; });
    Matrix working = dm.local();
    working.scale(3.0);
    const Matrix got =
        gather_region(dm.dist(), working, dm.me(), world, 0, n, 0, n);
    EXPECT_DOUBLE_EQ(got(5, 5), 3.0);
  });
}

TEST(Redistribute, ShapeMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(
      m.run([](Rank& r) {
        Comm world = Comm::world(r);
        Face2D face(world, 1, 2);
        auto a = std::make_shared<BlockCyclicDist>(face, 4, 4, 1, 1);
        auto b = std::make_shared<BlockCyclicDist>(face, 4, 5, 1, 1);
        DistMatrix src(a, r.id());
        (void)redistribute(src, b, world);
      }),
      Error);
}

TEST(Redistribute, OwnerOutsideCommunicatorThrows) {
  // The source lives on all four ranks but the exchange runs over {0, 1}
  // only: the owner table rejects it before any message moves.
  Machine m(4);
  EXPECT_THROW(
      m.run([](Rank& r) {
        if (r.id() >= 2) return;
        Comm world = Comm::world(r);
        Comm pair(r, {0, 1});
        DistMatrix src(cyclic_on(Face2D(world, 2, 2), 4, 4), r.id());
        (void)redistribute(src, cyclic_on(Face2D(pair, 1, 2), 4, 4), pair);
      }),
      Error);
}

}  // namespace
}  // namespace catrsm::dist
