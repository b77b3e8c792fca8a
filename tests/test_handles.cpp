// Tests for resident distributed operands and composable op-programs:
// upload -> execute_dist -> download bit-identity against the legacy
// matrix path, cost-signature purity (no scatter/collect phases on the
// resident path), handle survival across unrelated Machine runs,
// automatic redistribution on layout mismatch, storage release, and
// Program chaining (factor -> solve -> reversed solve == cholesky_solve_op).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/catrsm.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"
#include "sim/machine.hpp"

namespace catrsm::api {
namespace {

using la::index_t;
using la::Matrix;

TrsmSpec iterative_spec() {
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  return spec;
}

TrsmSpec recursive_spec() {
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kRecursive;
  return spec;
}

/// The shapes of the replica tests, named for what the recursive algorithm
/// does there, with the bytes of its replica. "split": a 2 x 4 face splits
/// into two 2 x 2 subgrids (one copy of L each) and recurses to four
/// 32 x 32 base cases, each gathered onto the 4 ranks of its subgrid.
/// "base": a 2 x 2 face with n0 = n, one base case gathering all of L onto
/// each of the 4 ranks.
struct RecShape {
  int p;
  index_t n, k;
  std::uint64_t replica_bytes;
  const char* name;
};
const RecShape kRecShapes[] = {
    {8, 128, 128, 8 * (2 * 128 * 128 + 8 * 4 * 32 * 32), "split"},
    {4, 64, 16, 8 * 4 * 64 * 64, "base"},
};

/// The L-only state a plan of each algorithm records and replays: the
/// phase its recording runs under, and whether a replay also saves flops
/// (the inversion computes; the replication only moves blocks of L).
struct KeptState {
  TrsmSpec spec;
  const char* phase;
  bool replay_saves_flops;

  /// The state's bytes: Ltilde is n x n; the replica's depend on the shape.
  std::uint64_t bytes(const RecShape& s) const {
    return spec.algorithm == model::Algorithm::kIterative
               ? 8 * static_cast<std::uint64_t>(s.n * s.n)
               : s.replica_bytes;
  }
  std::string name(const RecShape& s) const {
    return std::string(model::algorithm_name(spec.algorithm)) + " " + s.name;
  }
};
const KeptState kKeptStates[] = {
    {iterative_spec(), "inversion", true},
    {recursive_spec(), "replication", false},
};

/// Same modeled cost: algorithm-phase S/W/F and critical time.
void expect_same_cost(const sim::RunStats& got, const sim::RunStats& want,
                      const std::string& what) {
  const sim::Cost g = got.phase_cost("algorithm");
  const sim::Cost w = want.phase_cost("algorithm");
  EXPECT_EQ(g.msgs, w.msgs) << what;
  EXPECT_EQ(g.words, w.words) << what;
  EXPECT_EQ(g.flops, w.flops) << what;
  EXPECT_EQ(got.critical_time, want.critical_time) << what;
}

TEST(Handles, UploadExecuteDownloadMatchesLegacyBitwise) {
  const index_t n = 48, k = 12;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(501, n);
  const Matrix b1 = la::make_rhs(502, n, k);
  const Matrix b2 = la::make_rhs(503, n, k);

  // Legacy reference on its own context (separate plan, clean counters).
  Context ref_ctx(p);
  auto ref_plan = ref_ctx.plan(trsm_op(n, k, iterative_spec()));
  const ExecResult ref1 = ref_plan->execute(l, b1);
  const ExecResult ref2 = ref_plan->execute(l, b2);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb1 = ctx.upload(b1, plan->input_layout(1));
  const DistHandle hb2 = ctx.upload(b2, plan->input_layout(1));

  const DistExecResult r1 = plan->execute_dist(hl, hb1);
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(r1.stats.phase_max.count("inversion"), 1u);
  const DistExecResult r2 = plan->execute_dist(hl, hb2);
  // The resident factor's diagonal inverse is reused — that is the point.
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(r2.stats.phase_max.count("inversion"), 0u);

  EXPECT_TRUE(ctx.download(r1.x).equals(ref1.x));
  EXPECT_TRUE(ctx.download(r2.x).equals(ref2.x));
  // The output handle is itself a valid operand description.
  EXPECT_EQ(r1.x.rows(), n);
  EXPECT_EQ(r1.x.cols(), k);
  EXPECT_TRUE(r1.x.layout() == plan->output_layout());
}

TEST(Handles, AlgorithmCostExcludesUploadAndDownload) {
  const index_t n = 32, k = 8;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(511, n);
  const Matrix b = la::make_rhs(512, n, k);

  Context ref_ctx(p);
  const ExecResult legacy =
      ref_ctx.plan(trsm_op(n, k, iterative_spec()))->execute(l, b);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistExecResult r = plan->execute_dist(
      ctx.upload(l, plan->input_layout(0)),
      ctx.upload(b, plan->input_layout(1)));

  // No scatter, no collect, no layout transition: the run IS the
  // algorithm.
  EXPECT_EQ(r.stats.phase_max.count("output-collect"), 0u);
  EXPECT_EQ(r.stats.phase_max.count("redistribute"), 0u);
  const sim::Cost dist_alg = r.algorithm_cost();
  const sim::Cost legacy_alg = legacy.algorithm_cost();
  EXPECT_EQ(dist_alg.msgs, legacy_alg.msgs);
  EXPECT_EQ(dist_alg.words, legacy_alg.words);
  EXPECT_EQ(dist_alg.flops, legacy_alg.flops);
  EXPECT_EQ(r.stats.max_msgs(), dist_alg.msgs);
  EXPECT_EQ(r.stats.max_words(), dist_alg.words);
  EXPECT_EQ(r.stats.max_flops(), dist_alg.flops);
  // The matrix path IS upload -> execute_dist -> download: no output
  // gather, so its whole run is the algorithm too.
  EXPECT_EQ(legacy.stats.phase_max.count("output-collect"), 0u);
  EXPECT_EQ(legacy.stats.max_words(), legacy_alg.words);
  EXPECT_EQ(legacy.stats.critical_time, r.stats.critical_time);
}

TEST(Handles, HandleSurvivesUnrelatedMachineRuns) {
  const index_t n = 40, k = 8;
  const int p = 4;
  const Matrix l = la::make_lower_triangular(521, n);
  const Matrix b = la::make_rhs(522, n, k);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb = ctx.upload(b, plan->input_layout(1));
  const Matrix x1 = ctx.download(plan->execute_dist(hl, hb).x);

  // An unrelated run on the same machine must not disturb resident
  // operands (the store lives OUTSIDE run state).
  ctx.machine().run([](sim::Rank&) {});
  EXPECT_TRUE(ctx.download(hl).equals(l));

  const Matrix x2 = ctx.download(plan->execute_dist(hl, hb).x);
  EXPECT_EQ(plan->diag_inversions(), 1u);  // reuse across the rerun
  EXPECT_TRUE(x1.equals(x2));
}

TEST(Handles, LayoutMismatchAutoRedistributes) {
  const index_t n = 32, k = 8;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(531, n);
  const Matrix b = la::make_rhs(532, n, k);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const Layout required = plan->input_layout(1);
  // Upload B in a DIFFERENT (but valid) layout than the solver consumes.
  const Layout wrong = cyclic_layout(plan->config().p1, plan->config().p1);
  ASSERT_FALSE(wrong == required);
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb = ctx.upload(b, wrong);

  const DistExecResult r = plan->execute_dist(hl, hb);
  EXPECT_EQ(r.stats.phase_max.count("redistribute"), 1u);
  EXPECT_GT(r.redistribute_cost().msgs, 0.0);

  Context ref_ctx(p);
  const ExecResult legacy =
      ref_ctx.plan(trsm_op(n, k, iterative_spec()))->execute(l, b);
  EXPECT_TRUE(ctx.download(r.x).equals(legacy.x));
  // The transition is charged outside the algorithm phase.
  const sim::Cost alg = r.algorithm_cost();
  EXPECT_EQ(alg.msgs, legacy.algorithm_cost().msgs);
  EXPECT_EQ(alg.words, legacy.algorithm_cost().words);
}

TEST(Handles, TransposedResidentSolveMatchesLegacyBitwise) {
  const index_t n = 32, k = 8;
  const int p = 4;
  const Matrix l = la::make_lower_triangular(541, n);
  const Matrix b = la::make_rhs(542, n, k);
  TrsmSpec spec = iterative_spec();
  spec.transpose = true;

  Context ref_ctx(p);
  const ExecResult legacy = ref_ctx.plan(trsm_op(n, k, spec))->execute(l, b);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, spec));
  const DistExecResult r = plan->execute_dist(
      ctx.upload(l, plan->input_layout(0)),
      ctx.upload(b, plan->input_layout(1)));
  // The distributed reversal path (J L^T J) is permutation-exact, so it
  // agrees with the legacy host-side reversal bit for bit.
  EXPECT_TRUE(ctx.download(r.x).equals(legacy.x));
}

TEST(Handles, TriInvAndMatmulResidentPathsMatchLegacy) {
  const index_t n = 24;
  const int p = 4;
  Context ctx(p);
  {
    const Matrix l = la::make_lower_triangular(551, n);
    auto plan = ctx.plan(tri_inv_op(n));
    const ExecResult legacy = plan->execute(l);
    const DistExecResult r =
        plan->execute_dist(ctx.upload(l, plan->input_layout(0)));
    EXPECT_TRUE(ctx.download(r.x).equals(legacy.x));
  }
  {
    const index_t k = 12;
    const Matrix a = la::make_dense(552, n, n);
    const Matrix x = la::make_dense(553, n, k);
    auto plan = ctx.plan(matmul2d_op(n, k));
    const ExecResult legacy = plan->execute(a, x);
    const DistExecResult r = plan->execute_dist(
        ctx.upload(a, plan->input_layout(0)),
        ctx.upload(x, plan->input_layout(1)));
    EXPECT_TRUE(ctx.download(r.x).equals(legacy.x));
  }
}

TEST(Handles, ReleaseFreesResidentStorage) {
  const index_t n = 16;
  Context ctx(4);
  sim::HandleStore& store = ctx.machine().handle_store();
  const std::size_t before = store.count();
  {
    const DistHandle h =
        ctx.upload(la::make_dense(561, n, n), cyclic_layout(2, 2));
    EXPECT_EQ(store.count(), before + 1);
    const DistHandle copy = h;  // refcounted: copies share storage
    EXPECT_EQ(store.count(), before + 1);
  }
  EXPECT_EQ(store.count(), before);
}

TEST(Handles, UploadDownloadRoundTripsBitwise) {
  // The row-pointer copies of upload and download must place every
  // element exactly, for both layout kinds, for even and uneven blocks,
  // and for a generator source.
  Context ctx(8);
  for (const index_t n : {index_t{24}, index_t{101}}) {
    const Matrix m = la::make_dense(571, n, n);
    for (const Layout lay : {cyclic_layout(2, 4), row_blocked_layout(2, 2)}) {
      EXPECT_TRUE(ctx.download(ctx.upload(m, lay)).equals(m)) << n;
      const DistHandle g = ctx.upload(
          [&m](index_t i, index_t j) { return m(i, j); }, n, n, lay);
      EXPECT_TRUE(ctx.download(g).equals(m)) << n;
    }
  }
}

TEST(Handles, FailedExecuteLeavesResidentOperandsIntact) {
  // Factoring a non-SPD matrix throws INSIDE the simulated run ("matrix
  // not positive definite"). The resident operands must survive the
  // unwinding (slots are moved out for the body and restored on
  // failure), and the pre-created output entry must not leak.
  const index_t n = 24, k = 6;
  Context ctx(4);
  Matrix bad(n, n);
  for (index_t i = 0; i < n; ++i) bad(i, i) = -1.0;
  auto factor_plan = ctx.plan(cholesky_op(n));
  const DistHandle ha = ctx.upload(bad, factor_plan->input_layout(0));
  sim::HandleStore& store = ctx.machine().handle_store();
  const std::size_t entries = store.count();
  EXPECT_THROW((void)factor_plan->execute_dist(ha), Error);
  EXPECT_EQ(store.count(), entries);  // failed output entry released
  EXPECT_TRUE(ctx.download(ha).equals(bad));

  // The program driver unwinds the same way (kCholeskySolve is one).
  const Matrix b = la::make_rhs(622, n, k);
  auto solve_plan = ctx.plan(cholesky_solve_op(n, k));
  const DistHandle hb = ctx.upload(b, solve_plan->input_layout(1));
  EXPECT_THROW((void)solve_plan->execute_dist(ha, hb), Error);
  EXPECT_EQ(store.count(), entries + 1);  // ha + hb remain, nothing leaked
  EXPECT_TRUE(ctx.download(ha).equals(bad));
  EXPECT_TRUE(ctx.download(hb).equals(b));

  // The same handles still execute through a working plan afterwards:
  // overwrite-style recovery by re-uploading a good operand.
  const Matrix good = la::make_spd(621, n);
  const DistHandle hgood = ctx.upload(good, solve_plan->input_layout(0));
  const DistExecResult r = solve_plan->execute_dist(hgood, hb);
  const ExecResult ref = solve_plan->execute(good, b);
  EXPECT_TRUE(ctx.download(r.x).equals(ref.x));
}

TEST(Handles, RejectsForeignAndUnsupportedVariants) {
  const index_t n = 16, k = 4;
  Context ctx(4);
  Context other(4);
  auto plan = ctx.plan(trsm_op(n, k));
  const Matrix l = la::make_lower_triangular(571, n);
  const Matrix b = la::make_rhs(572, n, k);
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb_other = other.upload(b, plan->input_layout(1));
  EXPECT_THROW((void)plan->execute_dist(hl, hb_other), Error);

  TrsmSpec upper;
  upper.uplo = la::Uplo::kUpper;
  auto upper_plan = ctx.plan(trsm_op(n, k, upper));
  const DistHandle hb = ctx.upload(b, upper_plan->input_layout(1));
  EXPECT_THROW((void)upper_plan->execute_dist(hl, hb), Error);
}

TEST(Programs, FactorSolveSolveChainEqualsCholeskySolveOp) {
  const index_t n = 40, k = 8;
  const int q = 3;
  const int p = q * q;
  const Matrix a = la::make_spd(581, n);
  const Matrix b = la::make_rhs(582, n, k);

  Context ctx(p);
  auto solve_plan = ctx.plan(cholesky_solve_op(n, k));
  const ExecResult ref = solve_plan->execute(a, b);
  EXPECT_LT(ref.residual, 1e-10);
  // The pipeline runs as a program: three stage phases, one simulated
  // run, and no intermediate (or final) host collect inside it.
  EXPECT_EQ(ref.stats.phase_max.count("cholesky"), 1u);
  EXPECT_EQ(ref.stats.phase_max.count("forward-trsm"), 1u);
  EXPECT_EQ(ref.stats.phase_max.count("backward-trsm"), 1u);
  EXPECT_EQ(ref.stats.phase_max.count("output-collect"), 0u);

  // The same chain assembled EXPLICITLY through the public Program API.
  const int nblocks = solve_plan->config().nblocks;
  auto factor_plan = ctx.plan(cholesky_op(n, q));
  TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = model::Algorithm::kIterative;
  fwd.nblocks = nblocks;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(trsm_op(n, k, fwd));
  TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(trsm_op(n, k, bwd));

  Program prog(ctx);
  const auto na = prog.input(n, n);
  const auto nb = prog.input(n, k);
  const auto nl = prog.add(factor_plan, {na}, "cholesky");
  const auto ny = prog.add(fwd_plan, {nl, nb}, "forward-trsm");
  const auto nx = prog.add(bwd_plan, {nl, ny}, "backward-trsm");
  prog.mark_output(nx);

  const DistHandle ha = ctx.upload(a, cyclic_layout(q, q));
  const DistHandle hb = ctx.upload(b, row_blocked_layout(q, 1));
  Program::Result run = prog.run({ha, hb});
  ASSERT_EQ(run.outputs.size(), 1u);
  EXPECT_TRUE(ctx.download(run.outputs[0]).equals(ref.x));
  EXPECT_EQ(run.stats.phase_max.count("redistribute"), 0u);
  // Programs are reusable recipes: a second run against the same inputs
  // reproduces the result exactly.
  Program::Result again = prog.run({ha, hb});
  EXPECT_TRUE(ctx.download(again.outputs[0]).equals(ref.x));
}

TEST(Programs, CholeskySolveHandlePathMatchesMatrixPath) {
  const index_t n = 32, k = 4;
  const int p = 6;  // non-square rank count: pipeline on the 2 x 2 subgrid
  const Matrix a = la::make_spd(591, n);
  const Matrix b = la::make_rhs(592, n, k);
  Context ctx(p);
  auto plan = ctx.plan(cholesky_solve_op(n, k));
  const ExecResult ref = plan->execute(a, b);
  ASSERT_EQ(plan->config().p1, 2);
  EXPECT_LT(ref.residual, 1e-10);

  const DistExecResult r = plan->execute_dist(
      ctx.upload(a, plan->input_layout(0)),
      ctx.upload(b, plan->input_layout(1)));
  EXPECT_TRUE(ctx.download(r.x).equals(ref.x));
}

TEST(Programs, BatchOfResidentSolvesAgainstOneUploadedFactor) {
  // The serving pattern the resident path exists for: upload L once,
  // stream executes against it — every solve bitwise equal to the legacy
  // rescatter path, with exactly one diagonal inversion overall.
  const index_t n = 40, k = 5;
  const int p = 4;
  const Matrix l = la::make_lower_triangular(601, n);
  std::vector<Matrix> panels;
  for (int i = 0; i < 4; ++i)
    panels.push_back(la::make_rhs(610 + static_cast<std::uint64_t>(i), n, k));

  Context ref_ctx(p);
  auto ref_plan = ref_ctx.plan(trsm_op(n, k, iterative_spec()));
  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  for (const Matrix& b : panels) {
    const ExecResult ref = ref_plan->execute(l, b);
    const DistHandle hb = ctx.upload(b, plan->input_layout(1));
    EXPECT_TRUE(ctx.download(plan->execute_dist(hl, hb).x).equals(ref.x));
  }
  EXPECT_EQ(plan->diag_inversions(), 1u);
}

TEST(Programs, OneHandleBoundToTwoInputsIsLoadedOnceAndCopied) {
  // A handle bound to two input nodes is moved out of the store for the
  // first and copied for the second: A * A from one upload, bitwise what
  // two separate uploads give, and the handle goes back intact.
  const index_t n = 24;
  const Matrix a = la::make_dense(761, n, n);
  Context ctx(8);
  auto plan = ctx.plan(matmul3d_op(n, n, n));
  ASSERT_TRUE(plan->input_layout(0) == plan->input_layout(1));

  Program prog(ctx);
  const auto n0 = prog.input(n, n);
  const auto n1 = prog.input(n, n);
  prog.mark_output(prog.add(plan, {n0, n1}));
  const DistHandle h = ctx.upload(a, plan->input_layout(0));
  const Program::Result r = prog.run({h, h});
  const Matrix x = ctx.download(r.outputs[0]);
  EXPECT_LT(la::max_abs_diff(x, la::matmul(a, a)), 1e-11);
  EXPECT_TRUE(x.equals(plan->execute(a, a).x));
  EXPECT_TRUE(ctx.download(h).equals(a));
  EXPECT_EQ(prog.stats().redistributes_inserted, 0u);
}

TEST(Programs, EachRunSchedulesItsOwnInputLayouts) {
  // One Program run three times against B in different layouts: each run
  // schedules for the layouts it binds, so only the mismatched run pays a
  // layout change, and all three return the same bits.
  const index_t n = 48, k = 12;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(761, n);
  const Matrix b = la::make_rhs(762, n, k);

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  ASSERT_FALSE(plan->input_layout(0) == plan->input_layout(1));
  Program prog(ctx);
  const auto nl = prog.input(n, n);
  const auto nb = prog.input(n, k);
  prog.mark_output(prog.add(plan, {nl, nb}));

  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb = ctx.upload(b, plan->input_layout(1));
  const DistHandle hb_foreign = ctx.upload(b, plan->input_layout(0));

  const Program::Result native = prog.run({hl, hb});
  EXPECT_EQ(prog.stats().redistributes_inserted, 0u);
  EXPECT_EQ(native.stats.phase_max.count("redistribute"), 0u);

  const Program::Result foreign = prog.run({hl, hb_foreign});
  EXPECT_EQ(prog.stats().redistributes_inserted, 1u);
  EXPECT_GT(foreign.stats.phase_cost("redistribute").words, 0.0);

  const Program::Result again = prog.run({hl, hb});
  EXPECT_EQ(prog.stats().redistributes_inserted, 0u);

  const Matrix x = ctx.download(native.outputs[0]);
  EXPECT_TRUE(ctx.download(foreign.outputs[0]).equals(x));
  EXPECT_TRUE(ctx.download(again.outputs[0]).equals(x));
  EXPECT_LT(la::max_abs_diff(x, la::solve_lower(l, b)), 1e-9);
}

// ---------------------------------------------------------------------------
// Program optimizer: elision, merging, shared layout changes

TEST(Optimizer, FactorFeedingManySolvesComputesOnce) {
  // The serving workload's shape, written redundantly: every solve wires
  // its OWN factor step against the same operand. The optimizer must
  // merge the duplicates (N - 1 merges) and execute kCholesky exactly
  // once — proved through the "cholesky" phase charge, which equals the
  // single-factor program's.
  const index_t n = 40, k = 8;
  const int q = 3, p = 9;
  const int solves = 3;
  const Matrix a = la::make_spd(701, n);

  Context ctx(p);
  auto solve_plan = ctx.plan(cholesky_solve_op(n, k));
  auto factor_plan = ctx.plan(cholesky_op(n, q));
  TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = model::Algorithm::kIterative;
  fwd.nblocks = solve_plan->config().nblocks;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(trsm_op(n, k, fwd));
  TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(trsm_op(n, k, bwd));

  Program prog(ctx);
  const auto na = prog.input(n, n);
  std::vector<DistHandle> inputs{ctx.upload(a, cyclic_layout(q, q))};
  for (int j = 0; j < solves; ++j) {
    const Matrix b = la::make_rhs(710 + static_cast<std::uint64_t>(j), n, k);
    const auto nb = prog.input(n, k);
    inputs.push_back(ctx.upload(b, row_blocked_layout(q, 1)));
    const auto nl = prog.add(factor_plan, {na}, "cholesky");
    const auto ny = prog.add(fwd_plan, {nl, nb}, "forward-trsm");
    prog.mark_output(prog.add(bwd_plan, {nl, ny}, "backward-trsm"));
  }

  Program::Result opt = prog.run(inputs);
  EXPECT_EQ(prog.stats().nodes_merged,
            static_cast<std::uint64_t>(solves - 1));
  EXPECT_EQ(prog.stats().nodes_elided, 0u);
  EXPECT_EQ(prog.stats().steps_executed,
            static_cast<std::uint64_t>(1 + 2 * solves));

  // Reference: the same DAG written with ONE factor node.
  Program ref_prog(ctx);
  const auto rna = ref_prog.input(n, n);
  const auto rnl = ref_prog.add(factor_plan, {rna}, "cholesky");
  for (int j = 0; j < solves; ++j) {
    const auto rnb = ref_prog.input(n, k);
    const auto rny = ref_prog.add(fwd_plan, {rnl, rnb}, "forward-trsm");
    ref_prog.mark_output(ref_prog.add(bwd_plan, {rnl, rny},
                                      "backward-trsm"));
  }
  std::vector<DistHandle> ref_inputs{inputs[0]};
  for (int j = 0; j < solves; ++j)
    ref_inputs.push_back(inputs[static_cast<std::size_t>(j) + 1]);
  Program::Result ref = ref_prog.run(ref_inputs);

  const sim::Cost one_factor = ref.stats.phase_cost("cholesky");
  const sim::Cost opt_factor = opt.stats.phase_cost("cholesky");
  EXPECT_EQ(opt_factor.msgs, one_factor.msgs);
  EXPECT_EQ(opt_factor.words, one_factor.words);
  EXPECT_EQ(opt_factor.flops, one_factor.flops);
  for (int j = 0; j < solves; ++j)
    EXPECT_TRUE(ctx.download(opt.outputs[static_cast<std::size_t>(j)])
                    .equals(ctx.download(
                        ref.outputs[static_cast<std::size_t>(j)])));
}

TEST(Optimizer, DeadStepsAreElided) {
  const index_t n = 40, k = 8;
  const int q = 3, p = 9;
  const Matrix a = la::make_spd(721, n);
  const Matrix b = la::make_rhs(722, n, k);

  Context ctx(p);
  auto solve_plan = ctx.plan(cholesky_solve_op(n, k));
  auto factor_plan = ctx.plan(cholesky_op(n, q));
  TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = model::Algorithm::kIterative;
  fwd.nblocks = solve_plan->config().nblocks;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(trsm_op(n, k, fwd));
  TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(trsm_op(n, k, bwd));

  Program prog(ctx);
  const auto na = prog.input(n, n);
  const auto nb = prog.input(n, k);
  const auto nl = prog.add(factor_plan, {na}, "cholesky");
  const auto ny = prog.add(fwd_plan, {nl, nb}, "forward-trsm");
  // A decoy computation nothing marked depends on.
  (void)prog.add(ctx.plan(matmul2d_op(n, k)), {na, nb}, "decoy-mm");
  prog.mark_output(prog.add(bwd_plan, {nl, ny}, "backward-trsm"));

  const DistHandle ha = ctx.upload(a, cyclic_layout(q, q));
  const DistHandle hb = ctx.upload(b, row_blocked_layout(q, 1));
  Program::Result opt = prog.run({ha, hb});
  EXPECT_EQ(prog.stats().nodes_elided, 1u);
  EXPECT_EQ(prog.stats().steps_executed, 3u);
  EXPECT_EQ(opt.stats.phase_max.count("decoy-mm"), 0u);

  // Against the decoy-free pipeline: same bits.
  const ExecResult ref = solve_plan->execute(a, b);
  EXPECT_TRUE(ctx.download(opt.outputs[0]).equals(ref.x));
}

TEST(Optimizer, SharedConversionRunsOnceAndIsChargedOnce) {
  // One producer feeding two consumers that both need the SAME non-native
  // layout: the optimizer inserts one shared redistribute where one per
  // use would pay two. Pure data movement — bits cannot change.
  const index_t n = 48, k = 12;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(731, n);
  const Matrix b = la::make_rhs(732, n, k);

  Context ctx(p);
  TrsmSpec s1 = iterative_spec();
  s1.nblocks = 2;
  TrsmSpec s2 = iterative_spec();
  s2.nblocks = 4;
  auto plan1 = ctx.plan(trsm_op(n, k, s1));
  auto plan2 = ctx.plan(trsm_op(n, k, s2));
  ASSERT_TRUE(plan1->input_layout(1) == plan2->input_layout(1));

  Program prog(ctx);
  const auto nl = prog.input(n, n);
  const auto nb = prog.input(n, k);
  prog.mark_output(prog.add(plan1, {nl, nb}));
  prog.mark_output(prog.add(plan2, {nl, nb}));

  const DistHandle hl = ctx.upload(l, plan1->input_layout(0));
  // Upload B in a valid but WRONG layout, so both steps need a transition.
  const Layout wrong = plan1->input_layout(0);
  ASSERT_FALSE(wrong == plan1->input_layout(1));
  const DistHandle hb = ctx.upload(b, wrong);

  Program::Result opt = prog.run({hl, hb});
  EXPECT_EQ(prog.stats().redistributes_inserted, 1u);
  EXPECT_EQ(prog.stats().redistributes_avoided, 1u);
  EXPECT_EQ(prog.stats().nodes_merged, 0u);
  const sim::Cost opt_redist = opt.stats.phase_cost("redistribute");
  EXPECT_GT(opt_redist.words, 0.0);

  // Each step run alone changes B's layout once, at the shared change's
  // cost, and returns its own step's bits.
  const DistExecResult r1 = plan1->execute_dist(hl, hb);
  const DistExecResult r2 = plan2->execute_dist(hl, hb);
  for (const DistExecResult* r : {&r1, &r2}) {
    EXPECT_EQ(r->redistribute_cost().msgs, opt_redist.msgs);
    EXPECT_EQ(r->redistribute_cost().words, opt_redist.words);
  }
  EXPECT_TRUE(ctx.download(opt.outputs[0]).equals(ctx.download(r1.x)));
  EXPECT_TRUE(ctx.download(opt.outputs[1]).equals(ctx.download(r2.x)));
}

TEST(Optimizer, IntermediateReadOnlyInForeignLayoutsChangesOncePerLayout) {
  // The factor (cyclic 2 x 2) is read only in layouts other than its own:
  // by a triangular inversion (cyclic 4 x 4) and a recursive solve (cyclic
  // 1 x 16). Each consumer costs one layout change, none is shared, and
  // both outputs match their dense references.
  const index_t n = 32, k = 1024;
  const int p = 16;
  const Matrix a = la::make_spd(771, n);
  const Matrix b = la::make_rhs(772, n, k);

  Context ctx(p);
  auto factor_plan = ctx.plan(cholesky_op(n, 2));
  auto inv_plan = ctx.plan(tri_inv_op(n));
  TrsmSpec rec;
  rec.force_algorithm = true;
  rec.algorithm = model::Algorithm::kRecursive;
  auto solve_plan = ctx.plan(trsm_op(n, k, rec));
  ASSERT_TRUE(factor_plan->output_layout() == cyclic_layout(2, 2));
  ASSERT_TRUE(inv_plan->input_layout(0) == cyclic_layout(4, 4));
  ASSERT_TRUE(solve_plan->input_layout(0) == cyclic_layout(1, 16));

  Program prog(ctx);
  const auto na = prog.input(n, n);
  const auto nb = prog.input(n, k);
  const auto nl = prog.add(factor_plan, {na}, "cholesky");
  prog.mark_output(prog.add(inv_plan, {nl}));
  prog.mark_output(prog.add(solve_plan, {nl, nb}));
  const DistHandle ha = ctx.upload(a, factor_plan->input_layout(0));
  const DistHandle hb = ctx.upload(b, solve_plan->input_layout(1));

  const Program::Result opt = prog.run({ha, hb});
  EXPECT_EQ(prog.stats().redistributes_inserted, 2u);
  EXPECT_EQ(prog.stats().redistributes_avoided, 0u);
  EXPECT_GT(opt.stats.phase_cost("redistribute").words, 0.0);
  ASSERT_EQ(opt.outputs.size(), 2u);

  const Matrix l = la::cholesky(a);
  EXPECT_LT(la::max_abs_diff(ctx.download(opt.outputs[0]),
                             la::tri_inv(la::Uplo::kLower, l)),
            1e-9);
  EXPECT_LT(la::max_abs_diff(ctx.download(opt.outputs[1]),
                             la::solve_lower(l, b)),
            1e-9);
}

// ---------------------------------------------------------------------------
// Batches: the whole panel stream as one Machine::run

TEST(Programs, BatchIsOneProgramRunMatchingPerPanelSolvesBitwise) {
  const index_t n = 48, k = 12;
  const int p = 16;
  const int items = 4;
  const Matrix l = la::make_lower_triangular(741, n);
  std::vector<Matrix> bs;
  for (int i = 0; i < items; ++i)
    bs.push_back(la::make_rhs(750 + static_cast<std::uint64_t>(i), n, k));

  Context ref_ctx(p);
  auto ref_plan = ref_ctx.plan(trsm_op(n, k, iterative_spec()));
  std::vector<ExecResult> refs;
  for (const Matrix& b : bs) refs.push_back(ref_plan->execute(l, b));

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const std::uint64_t runs_before = ctx.scheduler().runs();
  const BatchResult br = plan->execute_batch(l, bs);
  // The whole batch — including the shared diagonal inversion, which the
  // first panel's step records and the later ones replay — was ONE
  // simulated run of one step per panel.
  EXPECT_EQ(ctx.scheduler().runs(), runs_before + 1);
  EXPECT_EQ(br.stats.phase_max.count("inversion"), 1u);
  EXPECT_EQ(br.stats.phase_max.count("redistribute"), 0u);
  EXPECT_EQ(br.program_stats.steps_executed,
            static_cast<std::uint64_t>(items));
  EXPECT_EQ(plan->diag_inversions(), 1u);

  ASSERT_EQ(br.xs.size(), static_cast<std::size_t>(items));
  for (int i = 0; i < items; ++i) {
    const std::size_t j = static_cast<std::size_t>(i);
    EXPECT_TRUE(br.xs[j].equals(refs[j].x));
    EXPECT_EQ(br.residuals[j], refs[j].residual);
  }

  // A second batch against the same operand bytes reuses the inverted
  // diagonals, like repeated executes do.
  const BatchResult br2 = plan->execute_batch(l, bs);
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(br2.stats.phase_max.count("inversion"), 0u);
  for (int i = 0; i < items; ++i)
    EXPECT_TRUE(br2.xs[static_cast<std::size_t>(i)]
                    .equals(refs[static_cast<std::size_t>(i)].x));
}

TEST(Replica, WarmSolveReplaysTheColdSolvesGathersBitwise) {
  // The first solve against an operand runs the L-only phase (the
  // iterative TRSM's inversion, the recursive TRSM's replication) and
  // keeps what it produced; every later one runs none of it and returns
  // the same bits. The cold solve charges exactly what the algorithm
  // without a replica charges (a plain Program step).
  for (const KeptState& st : kKeptStates)
    for (const RecShape& s : kRecShapes) {
      const std::string name = st.name(s);
      const Matrix l = la::make_lower_triangular(901, s.n);
      const Matrix b = la::make_rhs(902, s.n, s.k);
      Context ctx(s.p);
      auto plan = ctx.plan(trsm_op(s.n, s.k, st.spec));
      const DistHandle hl = ctx.upload(l, plan->input_layout(0));
      const DistHandle hb = ctx.upload(b, plan->input_layout(1));
      const DistExecResult cold = plan->execute_dist(hl, hb);
      const DistExecResult warm = plan->execute_dist(hl, hb);
      const DistExecResult again = plan->execute_dist(hl, hb);
      const Matrix x = ctx.download(cold.x);
      EXPECT_TRUE(ctx.download(warm.x).equals(x)) << name;
      EXPECT_TRUE(ctx.download(again.x).equals(x)) << name;
      expect_same_cost(again.stats, warm.stats, name);
      EXPECT_LT(warm.algorithm_cost().msgs, cold.algorithm_cost().msgs)
          << name;
      EXPECT_LT(warm.algorithm_cost().words, cold.algorithm_cost().words)
          << name;
      if (st.replay_saves_flops)
        EXPECT_LT(warm.algorithm_cost().flops, cold.algorithm_cost().flops)
            << name;
      else
        EXPECT_EQ(warm.algorithm_cost().flops, cold.algorithm_cost().flops)
            << name;
      EXPECT_GT(cold.stats.phase_cost(st.phase).words, 0.0) << name;
      EXPECT_EQ(warm.stats.phase_max.count(st.phase), 0u) << name;

      Program prog(ctx);
      const auto nl = prog.input(s.n, s.n);
      const auto nb = prog.input(s.n, s.k);
      prog.mark_output(prog.add(plan, {nl, nb}));
      const Program::Result plain = prog.run({hl, hb});
      EXPECT_TRUE(ctx.download(plain.outputs[0]).equals(x)) << name;
      expect_same_cost(plain.stats, cold.stats, name);
      EXPECT_EQ(plain.stats.phase_cost(st.phase).words,
                cold.stats.phase_cost(st.phase).words)
          << name;
    }
}

TEST(Replica, EveryNewOperandHandleRunsCold) {
  // The replica keys on the operand handle's (id, epoch), never on its
  // bytes: a changed element, a fresh upload of the same bytes and a
  // repaired handle each run cold, at exactly the first solve's cost, and
  // then replay their own replica.
  for (const KeptState& st : kKeptStates)
    for (const RecShape& s : kRecShapes) {
      const Matrix l = la::make_lower_triangular(911, s.n);
      const Matrix b = la::make_rhs(912, s.n, s.k);
      Matrix changed = l;
      changed(s.n - 1, 0) += 1.0;
      Context ctx(s.p);
      auto plan = ctx.plan(trsm_op(s.n, s.k, st.spec));
      const DistHandle hb = ctx.upload(b, plan->input_layout(1));
      const DistExecResult first =
          plan->execute_dist(ctx.upload(l, plan->input_layout(0)), hb);
      const Matrix x = ctx.download(first.x);

      const DistHandle h_changed =
          ctx.upload(changed, plan->input_layout(0));
      const DistHandle h_same = ctx.upload(l, plan->input_layout(0));
      const DistHandle h_repaired = ctx.upload(l, plan->input_layout(0));
      (void)plan->execute_dist(h_repaired, hb);  // record, then invalidate
      ctx.machine().handle_store().poison(h_repaired.id());
      ctx.repair(h_repaired);
      for (const auto& [h, what] :
           {std::pair{h_changed, "changed element"},
            std::pair{h_same, "same bytes"},
            std::pair{h_repaired, "repaired"}}) {
        const std::string tag = st.name(s) + ", " + what;
        const DistExecResult cold = plan->execute_dist(h, hb);
        expect_same_cost(cold.stats, first.stats, tag);
        EXPECT_EQ(cold.stats.phase_cost(st.phase).words,
                  first.stats.phase_cost(st.phase).words)
            << tag;
        EXPECT_EQ(ctx.download(cold.x).equals(x), h.id() != h_changed.id())
            << tag;
        const DistExecResult warm = plan->execute_dist(h, hb);
        EXPECT_EQ(warm.stats.phase_max.count(st.phase), 0u) << tag;
        EXPECT_TRUE(ctx.download(warm.x).equals(ctx.download(cold.x)))
            << tag;
      }
    }
}

TEST(Replica, ResidentBytesAreTheOperandPlusTheReplica) {
  for (const KeptState& st : kKeptStates)
    for (const RecShape& s : kRecShapes) {
      Context ctx(s.p);
      const sim::HandleStore& store = ctx.machine().handle_store();
      auto plan = ctx.plan(trsm_op(s.n, s.k, st.spec));
      const DistHandle hl = ctx.upload(la::make_lower_triangular(921, s.n),
                                       plan->input_layout(0));
      const std::uint64_t operand =
          8 * static_cast<std::uint64_t>(s.n * s.n);
      EXPECT_EQ(store.resident_bytes(), operand) << st.name(s);
      for (int call = 0; call < 2; ++call) {
        (void)plan->execute_dist(hl, ctx.upload(la::make_rhs(922, s.n, s.k),
                                                plan->input_layout(1)));
        EXPECT_EQ(store.resident_bytes(), operand + st.bytes(s))
            << st.name(s) << ", call " << call;
      }
    }
}

TEST(Replica, LOnlyStateDiesWithItsOperandOrItsPlan) {
  // The replica (Ltilde, or the gathered blocks of L) is attached to the
  // operand's store entry: a plan never keeps it for an operand that is
  // gone, and dropping the plan releases it while the operand lives on.
  const RecShape& s = kRecShapes[0];
  for (const TrsmSpec& spec : {iterative_spec(), recursive_spec()}) {
    const char* name = model::algorithm_name(spec.algorithm);
    sim::Machine machine(s.p);
    const sim::HandleStore& store = machine.handle_store();
    const std::size_t baseline = store.count();
    Context ctx(machine, /*plan_cache_capacity=*/1);
    const Matrix l = la::make_lower_triangular(931, s.n);
    const Matrix b = la::make_rhs(932, s.n, s.k);
    auto plan = ctx.plan(trsm_op(s.n, s.k, spec));
    {
      const DistHandle hl = ctx.upload(l, plan->input_layout(0));
      const DistHandle hb = ctx.upload(b, plan->input_layout(1));
      (void)plan->execute_dist(hl, hb);
      (void)plan->execute_dist(hl, hb);
      EXPECT_GT(store.count(), baseline + 2) << name;
    }
    EXPECT_EQ(store.count(), baseline) << name;

    const DistHandle hl = ctx.upload(l, plan->input_layout(0));
    (void)plan->execute_dist(hl, ctx.upload(b, plan->input_layout(1)));
    EXPECT_GT(store.count(), baseline + 1) << name;
    plan.reset();
    (void)ctx.plan(tri_inv_op(s.n));  // evicts the solve plan
    EXPECT_EQ(store.count(), baseline + 1) << name;
  }
}

TEST(Replica, RanksOutsideTheGridRecordNothing) {
  // An iterative plan on a forced 2 x 2 x 1 grid of 8 ranks: ranks 4-7
  // idle through every step, so only ranks 0-3 record a block of Ltilde.
  // The plan keeps and replays that replica like any other, on the
  // resident path and through a batch.
  const int p = 8;
  const index_t n = 40, k = 10;
  TrsmSpec spec = iterative_spec();
  spec.grid_p1 = 2;
  spec.grid_p2 = 1;
  const Matrix l = la::make_lower_triangular(941, n);
  std::vector<Matrix> bs;
  for (int i = 0; i < 3; ++i)
    bs.push_back(la::make_rhs(942 + static_cast<std::uint64_t>(i), n, k));
  const std::uint64_t operand = 8 * static_cast<std::uint64_t>(n * n);
  sim::Machine machine(p);
  const sim::HandleStore& store = machine.handle_store();
  const std::size_t baseline = store.count();
  {
    Context ctx(machine);
    auto plan = ctx.plan(trsm_op(n, k, spec));
    const auto solve = [&](const DistHandle& hl) {
      const DistExecResult r = plan->execute_dist(
          hl, ctx.upload(bs[0], plan->input_layout(1)));
      return std::pair{ctx.download(r.x), r.stats};
    };
    {
      const DistHandle hl = ctx.upload(l, plan->input_layout(0));
      const auto [x_cold, cold] = solve(hl);
      const auto [x_warm, warm] = solve(hl);
      EXPECT_TRUE(x_warm.equals(x_cold));
      EXPECT_EQ(cold.phase_max.count("inversion"), 1u);
      EXPECT_EQ(warm.phase_max.count("inversion"), 0u);
      EXPECT_LT(warm.phase_cost("algorithm").msgs,
                cold.phase_cost("algorithm").msgs);
      EXPECT_EQ(plan->diag_inversions(), 1u);
      EXPECT_EQ(store.resident_bytes(), 2 * operand);  // L and Ltilde
    }
    EXPECT_EQ(store.count(), baseline);
  }
  {
    Context ctx(machine, /*plan_cache_capacity=*/1);
    auto plan = ctx.plan(trsm_op(n, k, spec));
    const BatchResult cold = plan->execute_batch(l, bs);
    const BatchResult warm = plan->execute_batch(l, bs);
    for (std::size_t i = 0; i < bs.size(); ++i)
      EXPECT_TRUE(warm.xs[i].equals(cold.xs[i])) << "panel " << i;
    EXPECT_EQ(cold.stats.phase_max.count("inversion"), 1u);
    EXPECT_EQ(warm.stats.phase_max.count("inversion"), 0u);
    EXPECT_LT(warm.algorithm_cost().msgs, cold.algorithm_cost().msgs);
    EXPECT_EQ(plan->diag_inversions(), 1u);
    // The plan's memoized operand and its Ltilde.
    EXPECT_EQ(store.resident_bytes(), 2 * operand);
    plan.reset();
    (void)ctx.plan(tri_inv_op(n));  // evicts the solve plan and its memo
    EXPECT_EQ(store.count(), baseline);
  }
}

TEST(Replica, AMismatchedOperandIsRedistributedOnEverySolve) {
  // A replay replaces the L-only phase, not the solve's read of L: a warm
  // solve against an operand handle in another layout than
  // input_layout(0) pays a "redistribute" of L, and its X and algorithm
  // cost are those of the warm solve against the required layout.
  const RecShape& s = kRecShapes[0];
  for (const KeptState& st : kKeptStates) {
    const std::string name = st.name(s);
    const Matrix l = la::make_lower_triangular(951, s.n);
    const Matrix b = la::make_rhs(952, s.n, s.k);
    Context ctx(s.p);
    auto plan = ctx.plan(trsm_op(s.n, s.k, st.spec));
    const Layout required = plan->input_layout(0);
    const Layout other = required == cyclic_layout(s.p, 1)
                             ? cyclic_layout(1, s.p)
                             : cyclic_layout(s.p, 1);
    const DistHandle hb = ctx.upload(b, plan->input_layout(1));
    const DistHandle matched = ctx.upload(l, required);
    (void)plan->execute_dist(matched, hb);
    const DistExecResult want = plan->execute_dist(matched, hb);
    const DistHandle mismatched = ctx.upload(l, other);
    (void)plan->execute_dist(mismatched, hb);
    const DistExecResult got = plan->execute_dist(mismatched, hb);
    EXPECT_EQ(got.stats.phase_max.count(st.phase), 0u) << name;
    EXPECT_EQ(got.stats.phase_max.count("redistribute"), 1u) << name;
    EXPECT_GT(got.redistribute_cost().words, 0.0) << name;
    EXPECT_TRUE(ctx.download(got.x).equals(ctx.download(want.x))) << name;
    const sim::Cost g = got.algorithm_cost();
    const sim::Cost w = want.algorithm_cost();
    EXPECT_EQ(g.msgs, w.msgs) << name;
    EXPECT_EQ(g.words, w.words) << name;
    EXPECT_EQ(g.flops, w.flops) << name;
  }
}

}  // namespace
}  // namespace catrsm::api
