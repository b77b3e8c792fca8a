// Larger-machine smoke tests: the algorithms must stay correct and keep
// their cost shapes at p = 128-256 simulated ranks, the largest scale the
// test suite runs.

#include <gtest/gtest.h>

#include "dist/redistribute.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "la/trsm.hpp"
#include "sim/machine.hpp"
#include "trsm/it_inv_trsm.hpp"
#include "trsm/rec_trsm.hpp"

namespace catrsm::trsm {
namespace {

using dist::Face2D;
using la::index_t;
using la::Matrix;
using sim::Comm;
using sim::Machine;
using sim::Rank;
using sim::RunStats;

TEST(Scale, ItInv128Ranks) {
  const index_t n = 96, k = 24;
  const int p1 = 4, p2 = 8;  // p = 128
  Machine m(p1 * p1 * p2);
  const Matrix l = la::make_lower_triangular(61, n);
  const Matrix b = la::make_rhs(62, n, k);
  const Matrix ref = la::solve_lower(l, b);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D lface = it_inv_l_face(world, p1, p2);
    auto ld = dist::cyclic_on(lface, n, n);
    DistMatrix dl(ld, r.id());
    if (dl.participates()) dl.fill_from_global(l);
    auto bd = it_inv_b_dist(world, p1, p2, n, k);
    DistMatrix db(bd, r.id());
    if (db.participates()) db.fill_from_global(b);
    ItInvOptions opts;
    opts.nblocks = 4;
    DistMatrix dx = it_inv_trsm(dl, db, world, p1, p2, opts);
    const Matrix got = collect(dx, world);
    ASSERT_LT(la::max_abs_diff(got, ref), 1e-9);
  });
  // Latency stays polylog-ish: far below the hundreds of rounds a
  // p-dependent schedule would need at p = 128.
  EXPECT_LT(stats.max_msgs(), 500.0);
}

TEST(Scale, RecTrsm256Ranks) {
  const index_t n = 64, k = 16;
  const int p = 256;
  Machine m(p);
  const Matrix l = la::make_lower_triangular(63, n);
  const Matrix b = la::make_rhs(64, n, k);
  const Matrix ref = la::solve_lower(l, b);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 16, 16);
    auto ld = dist::cyclic_on(face, n, n);
    auto bd = dist::cyclic_on(face, n, k);
    DistMatrix dl(ld, r.id());
    dl.fill_from_global(l);
    DistMatrix db(bd, r.id());
    db.fill_from_global(b);
    RecTrsmOptions opts;
    opts.n0 = 16;
    DistMatrix dx = rec_trsm(dl, db, world, opts);
    ASSERT_LT(la::max_abs_diff(collect(dx, world), ref), 1e-9);
  });
}

TEST(Scale, LatencyGapWidensFrom16To64) {
  // The conclusion-table trend at runnable scale with the Section VIII
  // auto-tuned parameters (the E7 bench configuration): the
  // iterative/recursive latency ratio must grow with p in the 3D regime.
  const index_t n = 128, k = 32;
  const Matrix l = la::make_lower_triangular(65, n);
  const Matrix b = la::make_rhs(66, n, k);
  auto rec_s = [&](int pr) {
    Machine m(pr * pr);
    return m
        .run([&](Rank& r) {
          Comm world = Comm::world(r);
          Face2D face(world, pr, pr);
          auto ld = dist::cyclic_on(face, n, n);
          auto bd = dist::cyclic_on(face, n, k);
          DistMatrix dl(ld, r.id());
          dl.fill_from_global(l);
          DistMatrix db(bd, r.id());
          db.fill_from_global(b);
          (void)rec_trsm(dl, db, world);  // auto n0 per Section IV
        })
        .max_msgs();
  };
  auto it_s = [&](int p1, int p2) {
    Machine m(p1 * p1 * p2);
    return m
        .run([&](Rank& r) {
          Comm world = Comm::world(r);
          Face2D lface = it_inv_l_face(world, p1, p2);
          auto ld = dist::cyclic_on(lface, n, n);
          DistMatrix dl(ld, r.id());
          if (dl.participates()) dl.fill_from_global(l);
          auto bd = it_inv_b_dist(world, p1, p2, n, k);
          DistMatrix db(bd, r.id());
          if (db.participates()) db.fill_from_global(b);
          (void)it_inv_trsm(dl, db, world, p1, p2);  // auto nblocks
        })
        .max_msgs();
  };
  const double gain16 = rec_s(4) / it_s(2, 4);
  const double gain64 = rec_s(8) / it_s(4, 4);
  EXPECT_GT(gain16, 2.0);
  EXPECT_GT(gain64, 2.0 * gain16);
}

}  // namespace
}  // namespace catrsm::trsm
