// E9 — ablation: the block-size (n0) trade-off that motivates Section VI.
//
// Sweeping nblocks = n/n0 from 1 (full inversion) to n/8 (tiny blocks)
// exposes the latency/bandwidth trade-off the tuning of Section VIII
// optimizes: few blocks -> the inversion dominates (more flops, more
// inversion bandwidth); many blocks -> the (n/n0) log p solve/update
// latency dominates. The tuned value sits at the knee.

#include "bench_util.hpp"

#include <cmath>

#include "model/costs.hpp"
#include "model/tuning.hpp"
#include "trsm/it_inv_trsm.hpp"

namespace {

using namespace catrsm;
using dist::DistMatrix;
using dist::Face2D;
using la::index_t;
using sim::Comm;
using sim::Rank;
using sim::RunStats;

RunStats run_with_blocks(index_t n, index_t k, int p1, int p2, int nblocks) {
  const int p = p1 * p1 * p2;
  return bench::run_spmd(p, [&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D lface = trsm::it_inv_l_face(world, p1, p2);
    auto ld = dist::cyclic_on(lface, n, n);
    DistMatrix dl(ld, r.id());
    if (dl.participates())
      dl.fill([&](index_t i, index_t j) { return la::tri_entry(1, i, j, n); });
    auto bd = trsm::it_inv_b_dist(world, p1, p2, n, k);
    DistMatrix db(bd, r.id());
    if (db.participates())
      db.fill([&](index_t i, index_t j) { return la::rhs_entry(2, i, j); });
    trsm::ItInvOptions opts;
    opts.nblocks = nblocks;
    (void)trsm::it_inv_trsm(dl, db, world, p1, p2, opts);
  });
}

}  // namespace

int main() {
  bench::print_header(
      "E9: n0 ablation — selective inversion's latency/flop trade-off",
      "nblocks = 1 is full inversion; large nblocks recovers the "
      "latency-bound update chain");

  const index_t n = 128, k = 32;
  const int p1 = 2, p2 = 4;
  const sim::MachineParams mp{};  // default alpha/beta/gamma

  Table table({"nblocks", "n0", "S meas", "W meas", "F meas",
               "model time (a-b-g)"});
  for (const int nblocks : {1, 2, 4, 8, 16, 32}) {
    const RunStats stats = run_with_blocks(n, k, p1, p2, nblocks);
    table.row()
        .add(nblocks)
        .add(static_cast<long long>(ceil_div(n, nblocks)))
        .add(stats.max_msgs())
        .add(stats.max_words())
        .add(stats.max_flops())
        .add(stats.max_cost().time(mp) * 1e6);  // microseconds
  }
  table.print();
  std::cout << "\nauto-tuned nblocks for this shape: "
            << model::it_inv_nblocks(n, k, p1 * p1 * p2)
            << " (Section VIII would pick n0 ~ sqrt(nk) = "
            << Table::format_double(std::sqrt(static_cast<double>(n) * k))
            << ")\n"
            << "Expected: S grows with nblocks, F falls then flattens; "
               "the knee in model time matches the tuned value.\n";
  return 0;
}
