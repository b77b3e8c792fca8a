// Property-based op-DAG fuzzer (sim/check subsystem driver).
//
// Generates random api::Program DAGs — chains of TRSM / triangular
// inversion / Cholesky / matmul steps over random shapes, upload
// layouts, and machine sizes (including non-square p) — executes each
// with the correctness oracle armed (collective matching on, deadlock
// detection always on), and validates every marked output against a
// dense reference computed with the sequential la:: kernels. A subset
// of programs is additionally traced and replayed; the replay verifies
// bit-identical payloads and exactly equal modeled S/W/F costs.
//
// Dead and duplicate decoy steps are grafted onto each program, and the
// optimizer's elided/merged counts must equal exactly what they imply.
// Every program is then generated a second time from the same RNG state,
// without the decoys, and run on the same machine: that run must elide
// and merge nothing, and every output it shares with the decoy program
// must match bit for bit.
//
// Standalone main (no GTest): exits nonzero on the first failing
// program, printing the seed that reproduces it. --verbose prints one
// stdout line per run (the decoy program's "opt", then the decoy-free
// "base") with the critical time, every phase's max S/W/F, the
// ProgramStats, floats in hex, an FNV-1a digest of each output's bytes
// and, on traced runs, a digest of the trace's payload hashes in rank
// order: diffing two builds' verbose output checks modeled identity,
// output bits and wire bytes over random DAGs.
//
//   fuzz_dag [--programs N] [--seed S] [--verbose]

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/catrsm.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"
#include "sim/check/trace.hpp"
#include "support/check.hpp"

namespace {

using catrsm::Error;
using catrsm::api::Context;
using catrsm::api::DistHandle;
using catrsm::api::Layout;
using catrsm::api::Program;
using catrsm::api::TrsmSpec;
using catrsm::api::cyclic_layout;
using catrsm::la::Matrix;
using catrsm::la::index_t;

struct Options {
  int programs = 8;
  std::uint64_t seed = 1;
  bool verbose = false;
};

int pick(std::mt19937_64& rng, const std::vector<int>& from) {
  return from[std::uniform_int_distribution<std::size_t>(
      0, from.size() - 1)(rng)];
}

bool chance(std::mt19937_64& rng, double prob) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < prob;
}

/// Dense reference for the transposed lower solve L^T X = B.
Matrix solve_lower_t(const Matrix& l, const Matrix& b) {
  return catrsm::la::matmul(
      catrsm::la::tri_inv(catrsm::la::Uplo::kLower, l).transposed(), b);
}

/// A random layout a handle can legally be uploaded in on p ranks; the
/// program inserts redistributes when it differs from the consumer's
/// required layout.
Layout random_layout(std::mt19937_64& rng, int p) {
  static const int kFaces[][2] = {{1, 1}, {2, 1}, {1, 2}, {2, 2}};
  const int* f = kFaces[std::uniform_int_distribution<int>(0, 3)(rng)];
  if (f[0] * f[1] > p) return cyclic_layout(1, 1);
  return cyclic_layout(f[0], f[1]);
}

/// One generated program: the api::Program plus, per marked output, the
/// dense reference it must (approximately) reproduce. The tail step
/// (plan + args of the LAST node added, whose value is expected.back())
/// is kept so the driver can graft exact-count optimizer decoys onto
/// the DAG: an unmarked duplicate must be elided, a marked one merged.
struct Generated {
  Program prog;
  std::vector<DistHandle> inputs;
  std::vector<Matrix> expected;  // one per marked output, mark order
  std::string shape;             // human summary for --verbose / failures
  std::shared_ptr<catrsm::api::Plan> tail_plan;
  std::vector<Program::NodeId> tail_args;

  explicit Generated(Context& ctx) : prog(ctx) {}
};

DistHandle upload(Context& ctx, std::mt19937_64& rng, const Matrix& m,
                  Layout preferred) {
  // Half the uploads land in the consumer's required layout (zero
  // redistribution), half in a random one (forcing the transition path).
  const Layout layout =
      chance(rng, 0.5) ? preferred : random_layout(rng, ctx.nprocs());
  return ctx.upload(m, layout);
}

/// Chain kind A: thread an n x k panel through 1..4 random TRSM /
/// matmul steps. Shapes are invariant along the chain, so any step
/// order is legal.
void gen_panel_chain(Context& ctx, std::mt19937_64& rng, Generated& g) {
  const index_t n = pick(rng, {24, 32, 40});
  const index_t k = pick(rng, {3, 5, 8});
  const int steps = std::uniform_int_distribution<int>(1, 4)(rng);
  g.shape = "panel-chain n=" + std::to_string(n) + " k=" + std::to_string(k) +
            " steps=" + std::to_string(steps);

  const Matrix l = catrsm::la::make_lower_triangular(rng(), n);
  const Matrix b = catrsm::la::make_rhs(rng(), n, k);
  const Program::NodeId nl = g.prog.input(n, n);
  Program::NodeId cur = g.prog.input(n, k);

  std::shared_ptr<catrsm::api::Plan> first_trsm;
  Matrix ref = b;
  std::vector<Matrix> dense_inputs;  // extra matmul operands, input order
  for (int s = 0; s < steps; ++s) {
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0: {  // plain lower-left solve, planner-chosen algorithm
        auto plan = ctx.plan(catrsm::api::trsm_op(n, k));
        if (!first_trsm) first_trsm = plan;
        g.tail_plan = plan;
        g.tail_args = {nl, cur};
        cur = g.prog.add(plan, {nl, cur});
        ref = catrsm::la::solve_lower(l, ref);
        g.shape += " trsm";
        break;
      }
      case 1: {  // transposed solve: the program path requires iterative
        TrsmSpec spec;
        spec.transpose = true;
        spec.force_algorithm = true;
        spec.algorithm = catrsm::model::Algorithm::kIterative;
        auto plan = ctx.plan(catrsm::api::trsm_op(n, k, spec));
        if (!first_trsm) first_trsm = plan;
        g.tail_plan = plan;
        g.tail_args = {nl, cur};
        cur = g.prog.add(plan, {nl, cur});
        ref = solve_lower_t(l, ref);
        g.shape += " trsm^T";
        break;
      }
      case 2: {  // 3D multiply by a fresh dense operand
        const Matrix a = catrsm::la::make_dense(rng(), n, n);
        auto plan = ctx.plan(catrsm::api::matmul3d_op(n, n, k));
        const Program::NodeId na = g.prog.input(n, n);
        g.tail_plan = plan;
        g.tail_args = {na, cur};
        cur = g.prog.add(plan, {na, cur});
        g.inputs.push_back(upload(ctx, rng, a, plan->input_layout(0)));
        dense_inputs.push_back(a);
        ref = catrsm::la::matmul(a, ref);
        g.shape += " mm3d";
        break;
      }
      default: {  // 2D SUMMA multiply
        const Matrix a = catrsm::la::make_dense(rng(), n, n);
        auto plan = ctx.plan(catrsm::api::matmul2d_op(n, k));
        const Program::NodeId na = g.prog.input(n, n);
        g.tail_plan = plan;
        g.tail_args = {na, cur};
        cur = g.prog.add(plan, {na, cur});
        g.inputs.push_back(upload(ctx, rng, a, plan->input_layout(0)));
        dense_inputs.push_back(a);
        ref = catrsm::la::matmul(a, ref);
        g.shape += " mm2d";
        break;
      }
    }
  }
  g.prog.mark_output(cur);
  g.expected.push_back(ref);

  // Positional binding: inputs 0 and 1 are L and B; the matmul operands
  // were appended in declaration order above.
  std::vector<DistHandle> bound;
  const Layout l_pref = first_trsm ? first_trsm->input_layout(0)
                                   : cyclic_layout(1, 1);
  const Layout b_pref = first_trsm ? first_trsm->input_layout(1)
                                   : cyclic_layout(1, 1);
  bound.push_back(upload(ctx, rng, l, l_pref));
  bound.push_back(upload(ctx, rng, b, b_pref));
  for (DistHandle& h : g.inputs) bound.push_back(h);
  g.inputs = std::move(bound);
  (void)nl;
}

/// Chain kind B: the Cholesky pipeline composed explicitly — factor,
/// forward solve, transposed backward solve on a q x q subgrid.
void gen_cholesky_pipeline(Context& ctx, std::mt19937_64& rng, Generated& g) {
  const index_t n = pick(rng, {24, 32, 40});
  const index_t k = pick(rng, {3, 5, 8});
  int q = 1;
  while ((q + 1) * (q + 1) <= ctx.nprocs()) ++q;
  g.shape = "cholesky-pipeline n=" + std::to_string(n) +
            " k=" + std::to_string(k) + " q=" + std::to_string(q);

  const Matrix a = catrsm::la::make_spd(rng(), n);
  const Matrix b = catrsm::la::make_rhs(rng(), n, k);

  auto factor_plan = ctx.plan(catrsm::api::cholesky_op(n, q));
  TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = catrsm::model::Algorithm::kIterative;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(catrsm::api::trsm_op(n, k, fwd));
  TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(catrsm::api::trsm_op(n, k, bwd));

  const Program::NodeId na = g.prog.input(n, n);
  const Program::NodeId nb = g.prog.input(n, k);
  const Program::NodeId nfac = g.prog.add(factor_plan, {na});
  const Program::NodeId ny = g.prog.add(fwd_plan, {nfac, nb});
  g.tail_plan = bwd_plan;
  g.tail_args = {nfac, ny};
  const Program::NodeId nx = g.prog.add(bwd_plan, {nfac, ny});
  const bool want_factor = chance(rng, 0.5);
  if (want_factor) g.prog.mark_output(nfac);
  g.prog.mark_output(nx);

  const Matrix lref = catrsm::la::cholesky(a);
  if (want_factor) g.expected.push_back(lref);
  g.expected.push_back(solve_lower_t(lref, catrsm::la::solve_lower(lref, b)));

  g.inputs.push_back(upload(ctx, rng, a, factor_plan->input_layout(0)));
  g.inputs.push_back(upload(ctx, rng, b, fwd_plan->input_layout(1)));
}

/// Chain kind C: triangular inversion, optionally consumed by a matmul
/// (X = L^-1 B) so the inverse is both an output and an operand.
void gen_tri_inv(Context& ctx, std::mt19937_64& rng, Generated& g) {
  const index_t n = pick(rng, {24, 32, 40});
  g.shape = "tri-inv n=" + std::to_string(n);

  const Matrix l = catrsm::la::make_lower_triangular(rng(), n);
  auto inv_plan = ctx.plan(catrsm::api::tri_inv_op(n));
  const Program::NodeId nl = g.prog.input(n, n);
  g.tail_plan = inv_plan;
  g.tail_args = {nl};
  const Program::NodeId ninv = g.prog.add(inv_plan, {nl});
  g.prog.mark_output(ninv);
  const Matrix invref = catrsm::la::tri_inv(catrsm::la::Uplo::kLower, l);
  g.expected.push_back(invref);
  g.inputs.push_back(upload(ctx, rng, l, inv_plan->input_layout(0)));

  if (chance(rng, 0.5)) {
    const index_t k = pick(rng, {3, 5, 8});
    const Matrix b = catrsm::la::make_rhs(rng(), n, k);
    auto mm_plan = ctx.plan(catrsm::api::matmul3d_op(n, n, k));
    const Program::NodeId nb = g.prog.input(n, k);
    g.tail_plan = mm_plan;
    g.tail_args = {ninv, nb};
    const Program::NodeId nx = g.prog.add(mm_plan, {ninv, nb});
    g.prog.mark_output(nx);
    g.expected.push_back(catrsm::la::matmul(invref, b));
    g.inputs.push_back(upload(ctx, rng, b, mm_plan->input_layout(1)));
    g.shape += " +mm3d";
  }
}

/// Draw one program of a random kind into `g`.
void generate(Context& ctx, std::mt19937_64& rng, Generated& g) {
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0: gen_panel_chain(ctx, rng, g); break;
    case 1: gen_cholesky_pipeline(ctx, rng, g); break;
    default: gen_tri_inv(ctx, rng, g); break;
  }
}

/// FNV-1a digest of a trace's payload hashes, rank by rank in program
/// order: equal digests mean the same bytes crossed the wire in the same
/// order.
std::uint64_t wire_digest(const catrsm::sim::check::Trace& t) {
  std::vector<double> hashes;
  for (const auto& events : t.events)
    for (const auto& e : events) {
      hashes.push_back(std::bit_cast<double>(e.hash));
      hashes.push_back(std::bit_cast<double>(e.hash2));
    }
  return catrsm::sim::check::hash_words(hashes.data(), hashes.size());
}

/// The --verbose line of one run; `wire` is the traced run's
/// wire_digest.
void print_run(std::uint64_t seed, const char* mode,
               const Program::Result& r, const catrsm::api::ProgramStats& ps,
               const std::vector<Matrix>& outputs,
               std::optional<std::uint64_t> wire) {
  std::printf("seed %llu %s critical=%a",
              static_cast<unsigned long long>(seed), mode,
              r.stats.critical_time);
  for (const auto& [phase, c] : r.stats.phase_max)
    std::printf(" %s=%a/%a/%a", phase.c_str(), c.msgs, c.words, c.flops);
  std::printf(" elided=%llu merged=%llu inserted=%llu avoided=%llu "
              "steps=%llu",
              static_cast<unsigned long long>(ps.nodes_elided),
              static_cast<unsigned long long>(ps.nodes_merged),
              static_cast<unsigned long long>(ps.redistributes_inserted),
              static_cast<unsigned long long>(ps.redistributes_avoided),
              static_cast<unsigned long long>(ps.steps_executed));
  for (const Matrix& m : outputs)
    std::printf(" out=%016llx",
                static_cast<unsigned long long>(catrsm::sim::check::hash_words(
                    m.ptr(), static_cast<std::size_t>(m.size()))));
  if (wire.has_value())
    std::printf(" wire=%016llx", static_cast<unsigned long long>(*wire));
  std::printf("\n");
}

bool run_one(std::uint64_t seed, const Options& opt) {
  std::mt19937_64 rng(seed);
  const int p = pick(rng, {4, 6, 8, 9, 12});
  Context ctx(p);
  ctx.machine().set_collective_checking(true);

  // The generator's draws start here; a copy regenerates the program.
  const std::mt19937_64 gen_state = rng;
  Generated g(ctx);
  generate(ctx, rng, g);

  // Graft optimizer decoys with known exact counts onto the DAG. The
  // base generators never produce a dead or duplicate step (every node
  // feeds a marked output, every (plan, args) pair is distinct), so the
  // optimizer must report EXACTLY these counts.
  std::uint64_t want_elided = 0;
  std::uint64_t want_merged = 0;
  if (chance(rng, 0.5)) {  // unmarked duplicate: unreachable, elided
    (void)g.prog.add(g.tail_plan, g.tail_args);
    ++want_elided;
    g.shape += " +dead";
  }
  if (chance(rng, 0.5)) {  // marked duplicate: merged with the tail step
    g.prog.mark_output(g.prog.add(g.tail_plan, g.tail_args));
    g.expected.push_back(g.expected.back());
    ++want_merged;
    g.shape += " +dup";
  }

  const bool traced = chance(rng, 0.25);
  if (traced) ctx.machine().set_tracing(true, /*capture_payloads=*/true);

  Program::Result result = g.prog.run(g.inputs);
  if (result.outputs.size() != g.expected.size()) {
    std::fprintf(stderr, "fuzz_dag: seed %llu (%s, p=%d): %zu outputs, "
                 "expected %zu\n",
                 static_cast<unsigned long long>(seed), g.shape.c_str(), p,
                 result.outputs.size(), g.expected.size());
    return false;
  }
  if (g.prog.stats().nodes_elided != want_elided ||
      g.prog.stats().nodes_merged != want_merged) {
    std::fprintf(stderr, "fuzz_dag: seed %llu (%s, p=%d): optimizer "
                 "reported elided=%llu merged=%llu, DAG shape implies "
                 "elided=%llu merged=%llu\n",
                 static_cast<unsigned long long>(seed), g.shape.c_str(), p,
                 static_cast<unsigned long long>(g.prog.stats().nodes_elided),
                 static_cast<unsigned long long>(g.prog.stats().nodes_merged),
                 static_cast<unsigned long long>(want_elided),
                 static_cast<unsigned long long>(want_merged));
    return false;
  }
  std::vector<Matrix> got;
  got.reserve(result.outputs.size());
  for (std::size_t i = 0; i < result.outputs.size(); ++i) {
    got.push_back(ctx.download(result.outputs[i]));
    const Matrix& want = g.expected[i];
    const double err = catrsm::la::max_abs_diff(got.back(), want);
    const double tol = 1e-8 * (1.0 + catrsm::la::max_abs(want));
    if (err > tol) {
      std::fprintf(stderr, "fuzz_dag: seed %llu (%s, p=%d): output %zu "
                   "diverges from dense reference: max|diff| = %.3e "
                   "(tol %.3e)\n",
                   static_cast<unsigned long long>(seed), g.shape.c_str(), p,
                   i, err, tol);
      return false;
    }
  }

  std::optional<std::uint64_t> wire;
  if (traced) {
    catrsm::sim::check::Trace trace = ctx.machine().take_trace();
    ctx.machine().set_tracing(false);
    wire = wire_digest(trace);
    // Replay faults internally on any payload or modeled-cost divergence.
    (void)catrsm::sim::check::replay(ctx.machine(), trace);
  }
  if (opt.verbose)
    print_run(seed, "opt", result, g.prog.stats(), got, wire);

  // Metamorphic leg: the same program without the decoys. Elision and
  // merging only skip or share work, never touch the arithmetic, so every
  // output but the +dup one must reproduce the decoy run's bits.
  std::mt19937_64 base_rng = gen_state;
  Generated base(ctx);
  generate(ctx, base_rng, base);
  Program::Result base_result = base.prog.run(base.inputs);
  if (base.prog.stats().nodes_elided != 0 ||
      base.prog.stats().nodes_merged != 0 ||
      base_result.outputs.size() + want_merged != got.size()) {
    std::fprintf(stderr, "fuzz_dag: seed %llu (%s, p=%d): decoy-free "
                 "program elided or merged steps, or lost outputs\n",
                 static_cast<unsigned long long>(seed), g.shape.c_str(), p);
    return false;
  }
  std::vector<Matrix> base_got;
  base_got.reserve(base_result.outputs.size());
  for (std::size_t i = 0; i < base_result.outputs.size(); ++i) {
    base_got.push_back(ctx.download(base_result.outputs[i]));
    if (!base_got.back().equals(got[i])) {
      std::fprintf(stderr, "fuzz_dag: seed %llu (%s, p=%d): output %zu "
                   "differs between the decoy and decoy-free programs\n",
                   static_cast<unsigned long long>(seed), g.shape.c_str(), p,
                   i);
      return false;
    }
  }
  if (opt.verbose)
    print_run(seed, "base", base_result, base.prog.stats(), base_got,
              std::nullopt);

  if (opt.verbose)
    std::fprintf(stderr, "fuzz_dag: seed %llu ok (%s, p=%d%s)\n",
                 static_cast<unsigned long long>(seed), g.shape.c_str(), p,
                 traced ? ", traced+replayed" : "");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--programs") == 0 && i + 1 < argc) {
      opt.programs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--programs N] [--seed S] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }

  int failures = 0;
  for (int i = 0; i < opt.programs; ++i) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    try {
      if (!run_one(seed, opt)) ++failures;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fuzz_dag: seed %llu faulted:\n%s\n",
                   static_cast<unsigned long long>(seed), e.what());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "fuzz_dag: %d of %d programs FAILED\n", failures,
                 opt.programs);
    return 1;
  }
  std::printf("fuzz_dag: %d programs passed (seed %llu)\n", opt.programs,
              static_cast<unsigned long long>(opt.seed));
  return 0;
}
