// Machine-readable perf tracking: runs the kernel-substrate and crossover
// bench cases plus the batched-solve scenario the zero-copy transport and
// persistent scheduler target, and writes BENCH_sim.json — one record per
// case with wall-clock milliseconds AND the modeled (S, W, F,
// critical-path time) of the same execution, so the wall-clock trajectory
// can be tracked across PRs while the modeled costs pin down that the
// simulation itself did not change.
//
//   ./bench_runner [output.json] [--threads N] [--assert-scaling]
//                  [--assert-streams]
//
// An unknown flag prints the usage and exits 2.
//
// --threads N overrides the kernel pool size for the multi-threaded
// cases (default: CATRSM_KERNEL_THREADS / hardware_concurrency). The
// plain kernel/* cases always run single-threaded so their trajectory
// stays comparable across machines; kernel/gemm_mt sweeps the pool over
// {1, 2, 4, hw} next to a same-shape single-threaded baseline. Every
// record carries the detected hardware concurrency, so a committed
// speedup can always be read against the cores that produced it.
//
// --assert-scaling exits non-zero when the pooled GEMM at n = 1024 is
// slower than 1.05x the single-threaded wall at the configured pool
// size — the CI tripwire that keeps the pool from silently regressing
// to a slowdown again.
//
// --assert-streams exits non-zero when the concurrent-streams pass of
// streams/mixed_tenant delivers less than 1.05x the serial loop's
// solves/sec. Independently of the flag, every concurrent solution is
// compared bit for bit against its serial counterpart and every
// request's modeled cost must be identical across the two passes.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/catrsm.hpp"
#include "api/stream_pool.hpp"
#include "bench_util.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/kernel/kernel.hpp"
#include "la/kernel/pool.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trmm.hpp"
#include "la/trsm.hpp"
#include "model/tuning.hpp"

namespace {

using namespace catrsm;
using la::index_t;
using Clock = std::chrono::steady_clock;

struct Record {
  std::string name;
  int p = 0;
  index_t n = 0;
  index_t k = 0;
  double wall_ms = 0.0;
  double iterations = 1.0;  // wall_ms is for ALL iterations
  sim::Cost modeled;        // zero for host-only kernel cases
  double critical_time = 0.0;
  double gflops = 0.0;       // kernel cases only: flops / wall-clock
  std::string backend;       // kernel cases only: dispatched micro-kernel
  int threads = 1;           // kernel pool size the case's la:: calls saw
};

/// Detected hardware concurrency, stamped into every record: a committed
/// speedup is meaningless without the core count that produced it.
int hw_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void append_json(std::string& out, const Record& r, bool last) {
  out += "  {\"name\": \"" + r.name + "\"";
  out += ", \"p\": " + std::to_string(r.p);
  out += ", \"n\": " + std::to_string(r.n);
  out += ", \"k\": " + std::to_string(r.k);
  out += ", \"iterations\": " + std::to_string(r.iterations);
  out += ", \"threads\": " + std::to_string(r.threads);
  out += ", \"hw_concurrency\": " + std::to_string(hw_concurrency());
  out += ", \"wall_ms\": " + std::to_string(r.wall_ms);
  if (!r.backend.empty()) {
    out += ", \"gflops\": " + std::to_string(r.gflops);
    out += ", \"kernel_backend\": \"" + r.backend + "\"";
  }
  out += ", \"modeled\": {\"msgs\": " + std::to_string(r.modeled.msgs);
  out += ", \"words\": " + std::to_string(r.modeled.words);
  out += ", \"flops\": " + std::to_string(r.modeled.flops);
  out += ", \"critical_time\": " + std::to_string(r.critical_time) + "}}";
  out += last ? "\n" : ",\n";
}

// Rep counts for the host-only kernel cases: the committed file once
// carried kernel/gemm at 21.3 GFLOP/s next to gemm_st at 30.1 for the
// SAME configuration — pure run-to-run noise. Two warmups settle the
// frequency governor and a median of 9 pins the middle of the
// distribution.
constexpr int kKernelWarmups = 2;
constexpr int kKernelReps = 9;

/// E10-style local kernel substrate cases (no simulated machine). Each
/// case is kKernelWarmups warmup runs plus the median of kKernelReps
/// timed runs; `gflops` turns the wall clock into a machine-readable flop
/// rate so the perf trajectory of the micro-kernel layer can be tracked
/// across PRs. Forced to one kernel thread: the single-core trajectory
/// stays comparable across PRs and machines (kernel/gemm_mt carries the
/// scaling story).
void run_kernel_cases(std::vector<Record>& records) {
  la::kernel::ThreadPool::set_threads_for_testing(1);
  const std::string backend = la::kernel::backend_name();
  const auto push = [&](const char* name, index_t n, index_t k, double wall,
                        double flops) {
    Record r{name, 1, n,  k, wall, 1.0, {}, 0.0, flops / (wall * 1e6),
             backend, 1};
    records.push_back(std::move(r));
  };
  for (const index_t n : {64, 128, 256, 512}) {
    {
      const la::Matrix a = la::make_dense(1, n, n);
      const la::Matrix b = la::make_dense(2, n, n);
      la::Matrix c(n, n);
      const double wall = bench::median_wall_ms(
          kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
      push("kernel/gemm", n, n, wall, la::gemm_flops(n, n, n));
    }
    {
      const la::Matrix l = la::make_lower_triangular(3, n);
      const la::Matrix b = la::make_rhs(4, n, n);
      la::Matrix x = b;  // preallocated: the timed body re-copies the RHS
                         // (the solve is in-place) but never allocates
      const double wall = bench::median_wall_ms(kKernelWarmups, kKernelReps,
                                                [&] {
        x = b;
        la::trsm_left(la::Uplo::kLower, la::Diag::kNonUnit, l, x);
      });
      push("kernel/trsm", n, n, wall, la::trsm_flops(n, n));
    }
    {
      const la::Matrix l = la::make_lower_triangular(5, n);
      const double wall = bench::median_wall_ms(
          kKernelWarmups, kKernelReps,
          [&] { (void)la::tri_inv(la::Uplo::kLower, l); });
      push("kernel/tri_inv", n, 0, wall, la::tri_inv_flops(n));
    }
  }
  // The out-of-place triangular product at the (n, k) of solve_large_p4's
  // residual and at a smaller one, rated at its n^2 k flops.
  for (const auto& [n, k] : {std::pair<index_t, index_t>{1024, 256},
                             std::pair<index_t, index_t>{512, 64}}) {
    const la::Matrix l = la::make_lower_triangular(6, n);
    const la::Matrix b = la::make_rhs(7, n, k);
    const double wall = bench::median_wall_ms(
        kKernelWarmups, kKernelReps,
        [&] { (void)la::trmm(la::Uplo::kLower, l, b); });
    push("kernel/trmm", n, k, wall, la::trmm_flops(n, k));
  }
  la::kernel::ThreadPool::set_threads_for_testing(0);
}

/// Multi-threaded scaling cases: the same GEMM shape through the kernel
/// pool swept over {1, 2, 4, hw} threads, next to a single-threaded run
/// of the identical shape, so the committed JSON carries the whole
/// scaling curve (the `threads` field says what produced each record).
/// Returns the (st, mt-at-pool_threads) walls at n = 1024 for the
/// --assert-scaling tripwire.
std::pair<double, double> run_kernel_mt_cases(std::vector<Record>& records,
                                              int pool_threads) {
  const std::string backend = la::kernel::backend_name();
  std::vector<int> sweep{1, 2, 4, hw_concurrency(), pool_threads};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  std::pair<double, double> at_1024{0.0, 0.0};
  for (const index_t n : {512, 1024, 2048}) {
    const la::Matrix a = la::make_dense(21, n, n);
    const la::Matrix b = la::make_dense(22, n, n);
    la::Matrix c(n, n);
    la::kernel::ThreadPool::set_threads_for_testing(1);
    const double wall_st = bench::median_wall_ms(
        kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
    const double flops = la::gemm_flops(n, n, n);
    records.push_back({"kernel/gemm_st", 1, n, n, wall_st, 1.0, {}, 0.0,
                       flops / (wall_st * 1e6), backend, 1});
    if (n == 1024) at_1024.first = wall_st;
    for (const int t : sweep) {
      if (t <= 1) continue;
      la::kernel::ThreadPool::set_threads_for_testing(t);
      const double wall_mt = bench::median_wall_ms(
          kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
      records.push_back({"kernel/gemm_mt", 1, n, n, wall_mt, 1.0, {}, 0.0,
                         flops / (wall_mt * 1e6), backend, t});
      if (n == 1024 && t == pool_threads) at_1024.second = wall_mt;
      std::cout << "kernel/gemm_mt n=" << n << ": " << wall_st << " ms @1 -> "
                << wall_mt << " ms @" << t << " threads ("
                << wall_st / wall_mt << "x)\n";
    }
    la::kernel::ThreadPool::set_threads_for_testing(0);
  }
  return at_1024;
}

/// E11-style crossover cases: each (n, k) shape under every forced
/// algorithm, recording the modeled algorithm cost next to the wall clock.
void run_crossover_cases(std::vector<Record>& records) {
  const int p = 16;
  struct Shape {
    index_t n, k;
  };
  struct Algo {
    model::Algorithm a;
    const char* name;
  };
  api::Context ctx(p);
  for (const Shape s : {Shape{16, 1024}, Shape{64, 64}, Shape{256, 4}}) {
    const la::Matrix l = la::make_lower_triangular(1, s.n);
    const la::Matrix b = la::make_rhs(2, s.n, s.k);
    for (const Algo algo : {Algo{model::Algorithm::kIterative, "iterative"},
                            Algo{model::Algorithm::kRecursive, "recursive"},
                            Algo{model::Algorithm::kTrsm2D, "2d"}}) {
      api::TrsmSpec spec;
      spec.force_algorithm = true;
      spec.algorithm = algo.a;
      auto plan = ctx.plan(api::trsm_op(s.n, s.k, spec));
      const auto t0 = Clock::now();
      const api::ExecResult r = plan->execute(l, b);
      Record rec{"crossover/" + std::string(algo.name), p, s.n, s.k,
                 ms_since(t0), 1.0, r.algorithm_cost(),
                 r.stats.critical_time};
      records.push_back(rec);
    }
  }
}

/// The scenario the zero-copy buffers, persistent scheduler, slab pool
/// and diagonal-inverse reuse target: one plan, a 32-panel stream of
/// iterative-TRSM solves at p = 64, run by execute_batch as ONE
/// api::Program in ONE Machine::run — L uploaded once, intermediates
/// resident in the HandleStore, the diagonal inversion shared across
/// panels inside the run, one describe-only communicator realization per
/// layout. Modeled cost is the whole run's algorithm phase (iterations
/// says it covers all 32 solves).
///
/// Timed as one warmup batch plus the median of 3: the whole cold path —
/// fresh Context, plan build, first-panel diag inversion — is inside the
/// timed body, since a warm plan cache would shrink the wall.
void run_batch_case(std::vector<Record>& records) {
  const int p = 64;
  const index_t n = 96, k = 48;
  const int items = 32;
  const la::Matrix l = la::make_lower_triangular(11, n);
  std::vector<la::Matrix> bs;
  bs.reserve(items);
  for (int i = 0; i < items; ++i)
    bs.push_back(la::make_rhs(100 + static_cast<std::uint64_t>(i), n, k));

  api::BatchResult result;
  api::CacheStats cs;
  const double wall = bench::median_wall_ms(1, 3, [&] {
    api::Context ctx(p);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctx.plan(api::trsm_op(n, k, spec));
    result = plan->execute_batch(l, bs);
    cs = ctx.cache_stats();
  });
  records.push_back({"batch/it_trsm_32x_p64_fused", p, n, k, wall,
                     double(items), result.algorithm_cost(),
                     result.stats.critical_time});
  const api::ProgramStats& ps = result.program_stats;
  std::cout << "batch/it_trsm_32x_p64_fused: " << wall << " ms for " << items
            << " solves (" << wall / items << " ms/solve); program steps="
            << ps.steps_executed << " merged=" << ps.nodes_merged
            << " elided=" << ps.nodes_elided << " redist="
            << ps.redistributes_inserted << "; plan-cache hits=" << cs.hits
            << " misses=" << cs.misses << " entries=" << cs.entries << "\n";
}

/// The resident-operand form of the same scenario: upload L ONCE, then 32
/// execute_dist calls, one run each (per-item B upload + X download
/// included — that is the serving traffic pattern). Its modeled cost is
/// one solve's: the first call's, which inverts the diagonal blocks.
void run_resident_batch_case(std::vector<Record>& records) {
  const int p = 64;
  const index_t n = 96, k = 48;
  const int items = 32;
  api::Context ctx(p);
  api::TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  auto plan = ctx.plan(api::trsm_op(n, k, spec));
  const la::Matrix l = la::make_lower_triangular(11, n);
  std::vector<la::Matrix> bs;
  bs.reserve(items);
  for (int i = 0; i < items; ++i)
    bs.push_back(la::make_rhs(100 + static_cast<std::uint64_t>(i), n, k));

  const auto t0 = Clock::now();
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  sim::Cost modeled;
  double critical = 0.0;
  for (int i = 0; i < items; ++i) {
    const api::DistHandle hb =
        ctx.upload(bs[static_cast<std::size_t>(i)], plan->input_layout(1));
    const api::DistExecResult r = plan->execute_dist(hl, hb);
    (void)ctx.download(r.x);
    if (i == 0) {
      modeled = r.algorithm_cost();
      critical = r.stats.critical_time;
    }
  }
  const double wall = ms_since(t0);
  records.push_back({"resident/it_trsm_32x_p64", p, n, k, wall,
                     double(items), modeled, critical});
  std::cout << "resident/it_trsm_32x_p64: " << wall << " ms for " << items
            << " solves (" << wall / items << " ms/solve)\n";
}

/// A TRSM against a resident L: the first execute_dist records the plan's
/// replica of its L-only state, and the second replays it. The record is
/// the second (warm) solve's modeled cost; wall_ms times that solve alone.
///  - resident/rec_trsm_warm: the recursive TRSM's replica of what its
///    base-case and column-split collectives gather, so the warm solve
///    sends nothing for L. Replication is almost all of W at (16, 256, 4)
///    and all of it at (8, 16, 512), a column split over the 1 x 8 face;
///    (8, 128, 128) splits a 2 x 4 face and recurses below n0, with mm3d
///    updates between base cases.
///  - resident/it_trsm_warm: the iterative TRSM's Ltilde, so the warm
///    solve inverts nothing: at serve_small_p64's (64, 96, 48), and at
///    (8, 40, 10) on a forced 2 x 2 x 1 grid, whose ranks 4-7 idle and
///    record nothing.
void run_warm_cases(std::vector<Record>& records) {
  struct Case {
    const char* name;
    model::Algorithm algorithm;
    int p;
    index_t n, k;
    int grid_p1;  // 0: the tuner's grid; else grid_p1^2 x 1
  };
  const model::Algorithm rec = model::Algorithm::kRecursive;
  const model::Algorithm it = model::Algorithm::kIterative;
  for (const Case& c : {Case{"resident/rec_trsm_warm", rec, 16, 256, 4, 0},
                        Case{"resident/rec_trsm_warm", rec, 8, 16, 512, 0},
                        Case{"resident/rec_trsm_warm", rec, 8, 128, 128, 0},
                        Case{"resident/it_trsm_warm", it, 64, 96, 48, 0},
                        Case{"resident/it_trsm_warm", it, 8, 40, 10, 2}}) {
    api::Context ctx(c.p);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = c.algorithm;
    spec.grid_p1 = c.grid_p1;
    auto plan = ctx.plan(api::trsm_op(c.n, c.k, spec));
    const api::DistHandle hl = ctx.upload(la::make_lower_triangular(61, c.n),
                                          plan->input_layout(0));
    const api::DistHandle hb =
        ctx.upload(la::make_rhs(62, c.n, c.k), plan->input_layout(1));
    (void)plan->execute_dist(hl, hb);
    const auto t0 = Clock::now();
    const api::DistExecResult warm = plan->execute_dist(hl, hb);
    records.push_back({c.name, c.p, c.n, c.k, ms_since(t0), 1.0,
                       warm.algorithm_cost(), warm.stats.critical_time});
    std::cout << c.name << " p=" << c.p << " n=" << c.n << " k=" << c.k
              << ": W " << warm.algorithm_cost().words << ", critical "
              << warm.stats.critical_time * 1e6 << " us\n";
  }
}

/// The full SPD pipeline as a 3-op program (factor -> solve -> reversed
/// solve) in one simulated run with no intermediate collects.
void run_program_case(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  api::Context ctx(p);
  const la::Matrix a = la::make_spd(41, n);
  const la::Matrix b = la::make_rhs(42, n, k);
  auto plan = ctx.plan(api::cholesky_solve_op(n, k));
  const auto t0 = Clock::now();
  const api::ExecResult r = plan->execute(a, b);
  records.push_back({"program/spd_pipeline", p, n, k, ms_since(t0), 1.0,
                     r.algorithm_cost(), r.stats.critical_time});
  const api::CacheStats cs = ctx.cache_stats();
  std::cout << "program/spd_pipeline: " << records.back().wall_ms
            << " ms (residual " << r.residual << "); plan-cache hits="
            << cs.hits << " misses=" << cs.misses << " entries="
            << cs.entries << "\n";
}

/// The Cholesky-solve that spd_pipeline_p16 serves one panel at a time,
/// as one 8-panel execute_batch: the factor once, then per panel a
/// forward solve (the first inverts the factor's diagonal blocks, the
/// later ones replay them) and a reversed backward solve, in one run.
void run_cholesky_batch_case(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 512, k = 64;
  const int panels = 8;
  api::Context ctx(p);
  const la::Matrix a = la::make_spd(43, n);
  std::vector<la::Matrix> bs;
  for (int i = 0; i < panels; ++i)
    bs.push_back(la::make_rhs(44 + static_cast<std::uint64_t>(i), n, k));
  auto plan = ctx.plan(api::cholesky_solve_op(n, k));
  const auto t0 = Clock::now();
  const api::BatchResult r = plan->execute_batch(a, bs);
  records.push_back({"batch/cholesky_solve_8x_p16", p, n, k, ms_since(t0),
                     double(panels), r.algorithm_cost(),
                     r.stats.critical_time});
  std::cout << "batch/cholesky_solve_8x_p16: " << records.back().wall_ms
            << " ms for " << panels << " panels; S "
            << r.algorithm_cost().msgs << ", W " << r.algorithm_cost().words
            << "\n";
}

/// The optimizer on a redundantly-written SPD pipeline: three right-hand
/// sides, each wiring its OWN factor step against the same operand — the
/// shape a naive program author produces. The duplicate factors merge and
/// kCholesky runs once; the record carries the whole run's modeled
/// algorithm cost.
void run_program_opt_cases(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  const int panels = 3;
  const int q = 4;  // square factor subgrid of p = 16
  api::Context ctx(p);
  const la::Matrix a = la::make_spd(41, n);

  auto solve_plan = ctx.plan(api::cholesky_solve_op(n, k));
  auto factor_plan = ctx.plan(api::cholesky_op(n, q));
  api::TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = model::Algorithm::kIterative;
  fwd.nblocks = solve_plan->config().nblocks;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(api::trsm_op(n, k, fwd));
  api::TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(api::trsm_op(n, k, bwd));

  api::Program prog(ctx);
  std::vector<api::DistHandle> inputs{
      ctx.upload(a, factor_plan->input_layout(0))};
  const auto na = prog.input(n, n);
  for (int j = 0; j < panels; ++j) {
    const la::Matrix b =
        la::make_rhs(42 + static_cast<std::uint64_t>(j), n, k);
    inputs.push_back(ctx.upload(b, fwd_plan->input_layout(1)));
    const auto nb = prog.input(n, k);
    const auto nl = prog.add(factor_plan, {na});
    const auto ny = prog.add(fwd_plan, {nl, nb});
    prog.mark_output(prog.add(bwd_plan, {nl, ny}));
  }

  const auto t0 = Clock::now();
  const api::Program::Result r = prog.run(inputs);
  const api::ProgramStats& ps = prog.stats();
  records.push_back({"program/spd_pipeline_opt", p, n, k, ms_since(t0),
                     double(panels), r.algorithm_cost(),
                     r.stats.critical_time});
  std::cout << records.back().name << ": " << records.back().wall_ms
            << " ms for " << panels << " rhs panels; program steps="
            << ps.steps_executed << " merged=" << ps.nodes_merged
            << " elided=" << ps.nodes_elided << " redist="
            << ps.redistributes_inserted << " avoided="
            << ps.redistributes_avoided << "\n";
}

/// Oracle-overhead A/B: the same solve with the correctness oracle
/// (collective matching; the deadlock detector is always armed) off and
/// on. The oracle observes, never participates, so the two records'
/// modeled S/W/F and critical time must be byte-identical in the
/// committed JSON — a divergence is a regression in that zero-cost
/// guarantee. The wall-clock delta is the oracle's real overhead.
void run_oracle_cases(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  const la::Matrix l = la::make_lower_triangular(51, n);
  const la::Matrix b = la::make_rhs(52, n, k);
  for (const bool checked : {false, true}) {
    api::Context ctx(p);
    ctx.machine().set_collective_checking(checked);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctx.plan(api::trsm_op(n, k, spec));
    const auto t0 = Clock::now();
    const api::ExecResult r = plan->execute(l, b);
    records.push_back({checked ? "oracle/it_trsm_p16_check"
                               : "oracle/it_trsm_p16_nocheck",
                       p, n, k, ms_since(t0), 1.0, r.algorithm_cost(),
                       r.stats.critical_time});
    std::cout << records.back().name << ": " << records.back().wall_ms
              << " ms\n";
  }

  // Same solve with the fault-injection layer compiled in but DISARMED:
  // the injector's zero-cost contract (one null test per transport op,
  // no stamps, no sweeps) means this record's modeled S/W/F and critical
  // time must stay byte-identical to oracle/it_trsm_p16_nocheck in the
  // committed JSON.
  {
    api::Context ctx(p);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctx.plan(api::trsm_op(n, k, spec));
    const auto t0 = Clock::now();
    const api::ExecResult r = plan->execute(l, b);
    records.push_back({"oracle/injection_disarmed", p, n, k, ms_since(t0),
                       1.0, r.algorithm_cost(), r.stats.critical_time});
    std::cout << records.back().name << ": " << records.back().wall_ms
              << " ms\n";
  }
}

/// The execution-streams tentpole: four tenant Contexts sharing ONE
/// machine, a skewed mix of iterative-TRSM solves (every request its own
/// L and B, so streams never contend on a handle), served two ways over
/// the SAME pre-uploaded operands — a serial loop (execute_dist +
/// download per request, in admission order) versus api::StreamPool
/// keeping sim::kMaxStreams runs in flight while the host downloads
/// finished solutions. Both walls are committed as solves/sec-derivable
/// records; every concurrent solution must match its serial counterpart
/// bit for bit, and every request's modeled S/W/F + critical time must be
/// identical across the two passes (per-run virtual clocks — concurrency
/// cannot perturb the cost model). Returns (serial, concurrent) walls for
/// the --assert-streams tripwire.
std::pair<double, double> run_stream_cases(std::vector<Record>& records) {
  // p = 8 on purpose: stream overlap pays when one run cannot keep the
  // host cores busy by itself. A small-p iterative solve is exactly that
  // — its dependency chain leaves workers idle between panels — so the
  // pool's other streams fill the gaps. (At p = 64 a single run already
  // saturates a 2-core CI box and overlap can only add overhead; that
  // regime belongs to the scaling cases, not here.)
  const int p = 8;
  const int tenants = 4;
  struct Req {
    int tenant;
    index_t n, k;
  };
  // Skewed: tenant 0 carries the deep backlog of mid-size panels, the
  // rest bring lighter/odd-shaped traffic — interleaved round-robin, the
  // order the pool itself admits in, so the serial baseline is the same
  // schedule minus the overlap.
  std::vector<Req> reqs;
  {
    std::vector<std::vector<Req>> per_tenant(tenants);
    for (int i = 0; i < 12; ++i) per_tenant[0].push_back({0, 96, 48});
    for (int i = 0; i < 8; ++i) per_tenant[1].push_back({1, 128, 32});
    for (int i = 0; i < 6; ++i) per_tenant[2].push_back({2, 64, 96});
    for (int i = 0; i < 6; ++i) per_tenant[3].push_back({3, 96, 16});
    for (std::size_t row = 0; true;) {
      bool any = false;
      for (auto& q : per_tenant)
        if (row < q.size()) {
          reqs.push_back(q[row]);
          any = true;
        }
      if (!any) break;
      ++row;
    }
  }
  const int items = static_cast<int>(reqs.size());

  sim::Machine machine(p);
  std::vector<std::unique_ptr<api::Context>> ctxs;
  for (int t = 0; t < tenants; ++t)
    ctxs.push_back(std::make_unique<api::Context>(machine));

  // Per-request plans + operands, uploaded once up front: the timed
  // section is pure serving (solve + download), identical for both
  // passes.
  std::vector<std::shared_ptr<api::Plan>> plans;
  std::vector<api::DistHandle> hls, hbs;
  for (int i = 0; i < items; ++i) {
    const Req& q = reqs[static_cast<std::size_t>(i)];
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctxs[static_cast<std::size_t>(q.tenant)]->plan(
        api::trsm_op(q.n, q.k, spec));
    const std::uint64_t seed = 700 + static_cast<std::uint64_t>(i);
    hls.push_back(ctxs[static_cast<std::size_t>(q.tenant)]->upload(
        la::make_lower_triangular(seed, q.n), plan->input_layout(0)));
    hbs.push_back(ctxs[static_cast<std::size_t>(q.tenant)]->upload(
        la::make_rhs(seed + 1000, q.n, q.k), plan->input_layout(1)));
    plans.push_back(std::move(plan));
  }

  const auto serve_serial = [&](std::vector<la::Matrix>* xs,
                                std::vector<sim::Cost>* costs,
                                std::vector<double>* criticals) {
    for (int i = 0; i < items; ++i) {
      const std::size_t u = static_cast<std::size_t>(i);
      const api::DistExecResult r = plans[u]->execute_dist(hls[u], hbs[u]);
      if (xs != nullptr)
        (*xs)[u] = ctxs[static_cast<std::size_t>(reqs[u].tenant)]->download(
            r.x);
      if (costs != nullptr) (*costs)[u] = r.algorithm_cost();
      if (criticals != nullptr) (*criticals)[u] = r.stats.critical_time;
    }
  };

  // Untimed warmup pass: first-touch allocation, code paths, and the
  // plan-cache state are identical ahead of both timed passes (each
  // request has its own L, so no diagonal-inverse reuse either way).
  serve_serial(nullptr, nullptr, nullptr);

  std::vector<la::Matrix> xs_serial(static_cast<std::size_t>(items));
  std::vector<sim::Cost> costs_serial(static_cast<std::size_t>(items));
  std::vector<double> crit_serial(static_cast<std::size_t>(items));
  const auto t0 = Clock::now();
  serve_serial(&xs_serial, &costs_serial, &crit_serial);
  const double wall_serial = ms_since(t0);

  std::vector<la::Matrix> xs_conc(static_cast<std::size_t>(items));
  std::vector<sim::Cost> costs_conc(static_cast<std::size_t>(items));
  std::vector<double> crit_conc(static_cast<std::size_t>(items));
  const auto t1 = Clock::now();
  api::StreamPool pool;
  std::vector<int> pool_tenant(static_cast<std::size_t>(tenants), -1);
  for (int t = 0; t < tenants; ++t)
    pool_tenant[static_cast<std::size_t>(t)] =
        pool.add_tenant(*ctxs[static_cast<std::size_t>(t)]);
  std::vector<int> req_of_id;
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const int id = pool.submit(pool_tenant[static_cast<std::size_t>(
                                   reqs[u].tenant)],
                               plans[u], hls[u], hbs[u]);
    if (static_cast<std::size_t>(id) >= req_of_id.size())
      req_of_id.resize(static_cast<std::size_t>(id) + 1, -1);
    req_of_id[static_cast<std::size_t>(id)] = i;
  }
  for (;;) {
    const auto batch = pool.wait_some();
    if (batch.empty()) break;
    for (const auto& c : batch) {
      if (c.error) {
        try {
          std::rethrow_exception(c.error);
        } catch (const std::exception& e) {
          std::cerr << "STREAM FAULT: request " << c.id << ": " << e.what()
                    << "\n";
        }
        std::exit(1);
      }
      const std::size_t u =
          static_cast<std::size_t>(req_of_id[static_cast<std::size_t>(c.id)]);
      // Downloads of finished solutions overlap the still-running
      // streams — the serving pattern the tentpole buys.
      xs_conc[u] = ctxs[static_cast<std::size_t>(reqs[u].tenant)]->download(
          c.result.x);
      costs_conc[u] = c.result.algorithm_cost();
      crit_conc[u] = c.result.stats.critical_time;
    }
  }
  const double wall_conc = ms_since(t1);

  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    if (!xs_conc[u].equals(xs_serial[u])) {
      std::cerr << "STREAM MISMATCH: request " << i
                << " differs bitwise from the serial pass\n";
      std::exit(1);
    }
    if (costs_conc[u].msgs != costs_serial[u].msgs ||
        costs_conc[u].words != costs_serial[u].words ||
        costs_conc[u].flops != costs_serial[u].flops ||
        crit_conc[u] != crit_serial[u]) {
      std::cerr << "STREAM MODEL DRIFT: request " << i
                << " modeled cost differs between serial and concurrent "
                   "passes (per-run clocks must make them identical)\n";
      std::exit(1);
    }
  }

  records.push_back({"streams/mixed_tenant_serial", p, 96, 48, wall_serial,
                     double(items), costs_serial.front(),
                     crit_serial.front()});
  records.push_back({"streams/mixed_tenant", p, 96, 48, wall_conc,
                     double(items), costs_conc.front(), crit_conc.front()});
  const double rate_serial = 1e3 * items / wall_serial;
  const double rate_conc = 1e3 * items / wall_conc;
  std::cout << "streams/mixed_tenant: " << items << " solves, 4 tenants, "
            << pool.max_inflight() << " streams: " << wall_serial
            << " ms serial (" << rate_serial << " solves/s) -> " << wall_conc
            << " ms concurrent (" << rate_conc << " solves/s, "
            << rate_conc / rate_serial << "x)\n";
  return {wall_serial, wall_conc};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: bench_runner [output.json] [--threads N] [--assert-scaling] "
      "[--assert-streams] (N >= 1)\n";
  std::string path = "BENCH_sim.json";
  int threads_override = 0;
  bool assert_scaling = false;
  bool assert_streams = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      threads_override = i + 1 < argc ? std::atoi(argv[++i]) : 0;
      if (threads_override < 1) {
        std::cerr << kUsage;
        return 2;
      }
    } else if (arg == "--assert-scaling") {
      assert_scaling = true;
    } else if (arg == "--assert-streams") {
      assert_streams = true;
    } else if (arg.starts_with("-")) {
      std::cerr << "bench_runner: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      path = arg;
    }
  }
  if (threads_override > 0)
    la::kernel::ThreadPool::set_threads_for_testing(threads_override);
  const int pool_threads =
      la::kernel::ThreadPool::instance().size();
  la::kernel::ThreadPool::set_threads_for_testing(0);

  std::vector<Record> records;
  run_kernel_cases(records);
  const auto [st_1024, mt_1024] = run_kernel_mt_cases(records, pool_threads);
  run_crossover_cases(records);
  run_batch_case(records);
  run_resident_batch_case(records);
  run_program_case(records);
  run_cholesky_batch_case(records);
  run_program_opt_cases(records);
  run_oracle_cases(records);
  // Appended LAST so every pre-existing record keeps its position (and
  // its modeled fields byte-identical) in the committed JSON.
  const auto [streams_serial, streams_conc] = run_stream_cases(records);
  run_warm_cases(records);

  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    append_json(out, records[i], i + 1 == records.size());
  out += "]\n";
  std::ofstream f(path);
  f << out;
  std::cout << "wrote " << records.size() << " records to " << path << "\n";

  if (assert_scaling && pool_threads > 1 && mt_1024 > st_1024 * 1.05) {
    std::cerr << "SCALING REGRESSION: kernel/gemm_mt at n=1024 took "
              << mt_1024 << " ms with " << pool_threads
              << " threads vs " << st_1024
              << " ms single-threaded (limit: 1.05x)\n";
    return 1;
  }
  // Concurrent streams must beat the serial loop in solves/sec by at
  // least 1.05x, i.e. finish the same mix in under wall/1.05.
  if (assert_streams && streams_conc * 1.05 > streams_serial) {
    std::cerr << "STREAMS REGRESSION: streams/mixed_tenant took "
              << streams_conc << " ms concurrent vs " << streams_serial
              << " ms serial (need >= 1.05x solves/sec)\n";
    return 1;
  }
  return 0;
}
