// Tests for the handle-based plan/execute API: plan caching, diagonal-
// inverse reuse across executes and batches, one run per batch, the BLAS
// option matrix through Context/Plan, and the non-TRSM ops (triangular
// inverse, the Cholesky pipeline, 3D/2D matmul).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/catrsm.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"

namespace catrsm::api {
namespace {

using la::index_t;
using la::Matrix;

TEST(PlanCache, SecondPlanForSameOpHitsAndReturnsSameHandle) {
  Context ctx(8);
  const OpDesc d = trsm_op(32, 8);
  auto p1 = ctx.plan(d);
  EXPECT_EQ(ctx.cache_stats().hits, 0u);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
  auto p2 = ctx.plan(d);
  EXPECT_EQ(ctx.cache_stats().hits, 1u);
  EXPECT_EQ(ctx.cache_stats().misses, 1u);
  // A cache hit is the SAME plan object, so the frozen Config is
  // bit-identical by construction.
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->config().algorithm, p2->config().algorithm);
  EXPECT_EQ(p1->config().p1, p2->config().p1);
  EXPECT_EQ(p1->config().nblocks, p2->config().nblocks);
}

TEST(PlanCache, HitPlanProducesBitIdenticalResults) {
  const index_t n = 32, k = 8;
  const Matrix l = la::make_lower_triangular(301, n);
  const Matrix b = la::make_rhs(302, n, k);
  Context ctx(8);
  ExecResult r1 = ctx.plan(trsm_op(n, k))->execute(l, b);
  // Plan again (cache hit) and execute: identical configuration and
  // bit-identical solution.
  ExecResult r2 = ctx.plan(trsm_op(n, k))->execute(l, b);
  EXPECT_EQ(ctx.cache_stats().hits, 1u);
  EXPECT_EQ(r1.config.algorithm, r2.config.algorithm);
  EXPECT_EQ(r1.config.nblocks, r2.config.nblocks);
  EXPECT_EQ(r1.config.p1, r2.config.p1);
  EXPECT_EQ(r1.config.p2, r2.config.p2);
  EXPECT_TRUE(r1.x.equals(r2.x));
}

TEST(PlanCache, KeyDistinguishesShapeOptionsAndMachine) {
  Context ctx(8);
  (void)ctx.plan(trsm_op(32, 8));
  (void)ctx.plan(trsm_op(32, 9));  // different k
  TrsmSpec upper;
  upper.uplo = la::Uplo::kUpper;
  (void)ctx.plan(trsm_op(32, 8, upper));  // different variant
  (void)ctx.plan(tri_inv_op(32));         // different op
  EXPECT_EQ(ctx.cache_stats().hits, 0u);
  EXPECT_EQ(ctx.cache_stats().misses, 4u);
  EXPECT_EQ(ctx.cache_stats().entries, 4u);
}

TEST(PlanCache, LruEvictsBeyondCapacity) {
  Context ctx(4, sim::MachineParams{}, /*plan_cache_capacity=*/2);
  (void)ctx.plan(trsm_op(16, 2));
  (void)ctx.plan(trsm_op(16, 3));
  (void)ctx.plan(trsm_op(16, 4));  // evicts (16, 2)
  EXPECT_EQ(ctx.cache_stats().evictions, 1u);
  EXPECT_EQ(ctx.cache_stats().entries, 2u);
  (void)ctx.plan(trsm_op(16, 2));  // miss again
  EXPECT_EQ(ctx.cache_stats().misses, 4u);
  EXPECT_EQ(ctx.cache_stats().hits, 0u);
}

TEST(DiagReuse, RepeatedExecutesInvertDiagonalOnce) {
  const index_t n = 32, k = 8;
  const Matrix l = la::make_lower_triangular(303, n);
  const Matrix b1 = la::make_rhs(304, n, k);
  const Matrix b2 = la::make_rhs(305, n, k);
  Context ctx(8);
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  auto plan = ctx.plan(trsm_op(n, k, spec));
  ExecResult r1 = plan->execute(l, b1);
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(r1.stats.phase_max.count("inversion"), 1u);
  ExecResult r2 = plan->execute(l, b2);
  EXPECT_EQ(plan->diag_inversions(), 1u);  // reused, not recomputed
  EXPECT_EQ(r2.stats.phase_max.count("inversion"), 0u);
  EXPECT_LT(r1.residual, 1e-12);
  EXPECT_LT(r2.residual, 1e-12);
  // A different operand re-inverts.
  const Matrix l2 = la::make_lower_triangular(306, n);
  (void)plan->execute(l2, b1);
  EXPECT_EQ(plan->diag_inversions(), 2u);
}

TEST(DiagReuse, VariantExecutesRunOnTheLowerLeftPlan) {
  // A variant plan reduces the system on the host and runs it on the
  // lower-left plan of the same shape, so that plan keeps the operand
  // resident and inverts its diagonal blocks once.
  const index_t n = 32, k = 8;
  const Matrix u = la::make_lower_triangular(315, n).transposed();
  const Matrix b = la::make_rhs(316, n, k);
  Context ctx(8);
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  auto lower = ctx.plan(trsm_op(n, k, spec));
  TrsmSpec upper_spec = spec;
  upper_spec.uplo = la::Uplo::kUpper;
  auto upper = ctx.plan(trsm_op(n, k, upper_spec));
  const ExecResult r1 = upper->execute(u, b);
  const ExecResult r2 = upper->execute(u, b);
  EXPECT_EQ(ctx.cache_stats().misses, 2u);  // no third plan was built
  EXPECT_EQ(lower->diag_inversions(), 1u);
  EXPECT_EQ(upper->diag_inversions(), 0u);
  EXPECT_EQ(r1.stats.phase_max.count("inversion"), 1u);
  EXPECT_EQ(r2.stats.phase_max.count("inversion"), 0u);
  EXPECT_EQ(r1.config.nblocks, upper->config().nblocks);
  EXPECT_TRUE(r1.x.equals(r2.x));
  EXPECT_LT(r1.residual, 1e-12);
}

TEST(DiagReuse, BatchMatchesIndependentSolvesBitwise) {
  const index_t n = 40, k = 5;
  const int p = 8;
  const Matrix l = la::make_lower_triangular(307, n);
  std::vector<Matrix> panels;
  for (int i = 0; i < 4; ++i)
    panels.push_back(la::make_rhs(400 + static_cast<std::uint64_t>(i), n, k));

  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, spec));
  const BatchResult batch = plan->execute_batch(l, panels);
  ASSERT_EQ(batch.xs.size(), panels.size());
  // Diagonal inversion ran exactly once for the whole batch...
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(batch.stats.phase_max.count("inversion"), 1u);

  // ...yet every panel's solution and residual match an independent
  // solve on a fresh context bit for bit.
  for (std::size_t i = 0; i < panels.size(); ++i) {
    Context ref_ctx(p);
    const ExecResult ref =
        ref_ctx.plan(trsm_op(n, k, spec))->execute(l, panels[i]);
    EXPECT_TRUE(batch.xs[i].equals(ref.x)) << "panel " << i;
    EXPECT_EQ(batch.residuals[i], ref.residual) << "panel " << i;
  }
}

// ---------------------------------------------------------------------------
// Recursive TRSM: the replica of L's gathered blocks

/// Forced-recursive shapes: a column split with recursion below n0 (a 2 x 4
/// face, n0 = 51) and a single base case (a 2 x 2 face, n0 = n).
struct RecShape {
  int p;
  index_t n, k;
  const char* name;
};
const RecShape kRecShapes[] = {{8, 128, 128, "split"}, {4, 64, 16, "base"}};

OpDesc recursive_op(const RecShape& s) {
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kRecursive;
  return trsm_op(s.n, s.k, spec);
}

TEST(Replication, ExecuteRecordsOnceThenReplaysAFixedOperand) {
  // execute() keeps a fixed operand's handle, so its replica hits: the
  // second call sends less, shows no "replication" phase, and returns the
  // bits a fresh machine returns. A changed element runs cold again, at
  // the first call's cost.
  for (const RecShape& s : kRecShapes) {
    const Matrix l = la::make_lower_triangular(361, s.n);
    const Matrix b = la::make_rhs(362, s.n, s.k);
    Context ctx(s.p);
    auto plan = ctx.plan(recursive_op(s));
    const ExecResult cold = plan->execute(l, b);
    const ExecResult warm = plan->execute(l, b);
    Context ref_ctx(s.p);
    const ExecResult ref = ref_ctx.plan(recursive_op(s))->execute(l, b);

    EXPECT_TRUE(cold.x.equals(ref.x)) << s.name;
    EXPECT_TRUE(warm.x.equals(ref.x)) << s.name;
    EXPECT_EQ(warm.residual, ref.residual) << s.name;
    EXPECT_EQ(cold.algorithm_cost().words, ref.algorithm_cost().words)
        << s.name;
    EXPECT_LT(warm.algorithm_cost().msgs, cold.algorithm_cost().msgs)
        << s.name;
    EXPECT_LT(warm.algorithm_cost().words, cold.algorithm_cost().words)
        << s.name;
    EXPECT_EQ(cold.stats.phase_max.count("replication"), 1u) << s.name;
    EXPECT_EQ(warm.stats.phase_max.count("replication"), 0u) << s.name;

    Matrix changed = l;
    changed(s.n - 1, 0) += 1.0;
    const ExecResult again = plan->execute(changed, b);
    EXPECT_EQ(again.algorithm_cost().msgs, cold.algorithm_cost().msgs)
        << s.name;
    EXPECT_EQ(again.algorithm_cost().words, cold.algorithm_cost().words)
        << s.name;
    EXPECT_EQ(again.stats.critical_time, cold.stats.critical_time) << s.name;
    EXPECT_LT(again.residual, 1e-12) << s.name;
  }
}

TEST(Replication, ThreePanelBatchReplicatesOnce) {
  // The first panel records the replica and the later panels of the same
  // run replay it: the batch charges one solve's replication, and the
  // next batch against the same matrix charges none.
  for (const RecShape& s : kRecShapes) {
    const Matrix l = la::make_lower_triangular(363, s.n);
    std::vector<Matrix> bs;
    for (int i = 0; i < 3; ++i)
      bs.push_back(la::make_rhs(364 + static_cast<std::uint64_t>(i), s.n,
                                s.k));
    Context ref_ctx(s.p);
    const ExecResult one = ref_ctx.plan(recursive_op(s))->execute(l, bs[0]);

    Context ctx(s.p);
    auto plan = ctx.plan(recursive_op(s));
    const BatchResult batch = plan->execute_batch(l, bs);
    const sim::Cost replication = batch.stats.phase_cost("replication");
    EXPECT_EQ(replication.msgs, one.stats.phase_cost("replication").msgs)
        << s.name;
    EXPECT_EQ(replication.words, one.stats.phase_cost("replication").words)
        << s.name;
    EXPECT_TRUE(batch.xs[0].equals(one.x)) << s.name;
    const BatchResult next = plan->execute_batch(l, bs);
    EXPECT_EQ(next.stats.phase_max.count("replication"), 0u) << s.name;
    for (std::size_t i = 0; i < bs.size(); ++i)
      EXPECT_TRUE(next.xs[i].equals(batch.xs[i])) << s.name << " " << i;
  }
}

// ---------------------------------------------------------------------------
// execute_batch: the whole panel stream in one Machine::run

/// Plan `desc` on `ctx` and batch-execute `bs`: the batch must be exactly
/// one scheduler run, and each panel's solution and residual must equal
/// execute() of that panel alone (on a fresh machine) bit for bit.
BatchResult expect_one_run_matching_execute(Context& ctx, const OpDesc& desc,
                                            const Matrix& a,
                                            const std::vector<Matrix>& bs,
                                            const std::string& what) {
  const std::uint64_t runs = ctx.scheduler().runs();
  BatchResult batch = ctx.plan(desc)->execute_batch(a, bs);
  EXPECT_EQ(ctx.scheduler().runs(), runs + 1) << what;
  EXPECT_EQ(batch.xs.size(), bs.size()) << what;
  EXPECT_EQ(batch.residuals.size(), bs.size()) << what;
  Context ref_ctx(ctx.nprocs());
  auto ref_plan = ref_ctx.plan(desc);
  for (std::size_t i = 0; i < bs.size() && i < batch.xs.size(); ++i) {
    const ExecResult one = ref_plan->execute(a, bs[i]);
    EXPECT_TRUE(batch.xs[i].equals(one.x)) << what << ", panel " << i;
    EXPECT_EQ(batch.residuals[i], one.residual) << what << ", panel " << i;
  }
  return batch;
}

TEST(ExecuteBatch, OneRunPerBatchBitwiseEqualToPerPanelExecute) {
  const index_t n = 24, k = 5;
  const int p = 4;
  const int panels = 3;
  for (const model::Algorithm alg :
       {model::Algorithm::kIterative, model::Algorithm::kRecursive,
        model::Algorithm::kTrsm2D, model::Algorithm::kTrsv1D}) {
    for (const la::Uplo uplo : {la::Uplo::kLower, la::Uplo::kUpper}) {
      for (const Side side : {Side::kLeft, Side::kRight}) {
        for (const bool trans : {false, true}) {
          TrsmSpec spec;
          spec.force_algorithm = true;
          spec.algorithm = alg;
          spec.uplo = uplo;
          spec.side = side;
          spec.transpose = trans;
          const Matrix t = uplo == la::Uplo::kLower
                               ? la::make_lower_triangular(351, n)
                               : la::make_upper_triangular(352, n);
          std::vector<Matrix> bs;
          for (int i = 0; i < panels; ++i) {
            const std::uint64_t seed = 353 + static_cast<std::uint64_t>(i);
            bs.push_back(side == Side::kLeft ? la::make_rhs(seed, n, k)
                                             : la::make_rhs(seed, k, n));
          }
          const std::string what =
              std::string(model::algorithm_name(alg)) +
              (uplo == la::Uplo::kLower ? " lower" : " upper") +
              (side == Side::kLeft ? " left" : " right") +
              (trans ? " transposed" : "");
          Context ctx(p);
          const BatchResult batch =
              expect_one_run_matching_execute(ctx, trsm_op(n, k, spec), t,
                                              bs, what);
          for (const double r : batch.residuals) EXPECT_LT(r, 1e-10) << what;
          if (alg == model::Algorithm::kIterative) {
            // Every variant runs on the lower-left plan, which inverted the
            // diagonal blocks once for the whole stream.
            TrsmSpec lower_left;
            lower_left.force_algorithm = true;
            lower_left.algorithm = alg;
            EXPECT_EQ(ctx.plan(trsm_op(n, k, lower_left))->diag_inversions(),
                      1u)
                << what;
            EXPECT_EQ(batch.stats.phase_max.count("inversion"), 1u) << what;
          }
        }
      }
    }
  }

  {
    // Cholesky-solve factors A once, inverts the factor's diagonal blocks
    // once (inside the first forward solve), and solves every panel
    // against them: a factor step plus two solve steps per panel.
    const index_t m = 20;
    const Matrix a = la::make_spd(361, m);
    std::vector<Matrix> bs;
    for (int i = 0; i < panels; ++i)
      bs.push_back(la::make_rhs(362 + static_cast<std::uint64_t>(i), m, k));
    Context ctx(p);
    const BatchResult batch = expect_one_run_matching_execute(
        ctx, cholesky_solve_op(m, k), a, bs, "cholesky-solve");
    EXPECT_EQ(batch.program_stats.steps_executed,
              static_cast<std::uint64_t>(1 + 2 * panels));
    for (const double r : batch.residuals) EXPECT_LT(r, 1e-10);
    // The forward solves share one inversion: a panels-wide batch sends
    // fewer forward messages than panels one-panel batches.
    Context one_ctx(p);
    const BatchResult one = one_ctx.plan(cholesky_solve_op(m, k))
                                ->execute_batch(a, {bs.data(), 1});
    EXPECT_LT(batch.stats.phase_cost("forward-trsm").msgs,
              panels * one.stats.phase_cost("forward-trsm").msgs);
  }
  {
    const index_t m = 16, inner = 12;
    const Matrix a = la::make_dense(371, m, inner);
    std::vector<Matrix> xs;
    for (int i = 0; i < panels; ++i)
      xs.push_back(
          la::make_dense(372 + static_cast<std::uint64_t>(i), inner, k));
    Context ctx(8);
    const BatchResult batch = expect_one_run_matching_execute(
        ctx, matmul3d_op(m, inner, k), a, xs, "matmul-3d");
    for (int i = 0; i < panels; ++i)
      EXPECT_LT(la::max_abs_diff(batch.xs[static_cast<std::size_t>(i)],
                                 la::matmul(a, xs[static_cast<std::size_t>(i)])),
                1e-11);
  }
  {
    const index_t m = 16;
    const Matrix a = la::make_dense(381, m, m);
    std::vector<Matrix> xs;
    for (int i = 0; i < panels; ++i)
      xs.push_back(la::make_dense(382 + static_cast<std::uint64_t>(i), m, k));
    Context ctx(6);
    const BatchResult batch = expect_one_run_matching_execute(
        ctx, matmul2d_op(m, k), a, xs, "matmul-2d");
    for (int i = 0; i < panels; ++i)
      EXPECT_LT(la::max_abs_diff(batch.xs[static_cast<std::size_t>(i)],
                                 la::matmul(a, xs[static_cast<std::size_t>(i)])),
                1e-11);
  }
}

TEST(ExecuteBatch, RejectsOpsWithoutRightHandSideBeforeAnyRun) {
  const index_t n = 16;
  Context ctx(4);
  const std::vector<Matrix> bs{la::make_rhs(391, n, 4)};
  const std::uint64_t runs = ctx.scheduler().runs();
  EXPECT_THROW((void)ctx.plan(tri_inv_op(n))
                   ->execute_batch(la::make_lower_triangular(392, n), bs),
               Error);
  EXPECT_THROW(
      (void)ctx.plan(cholesky_op(n))->execute_batch(la::make_spd(393, n), bs),
      Error);
  EXPECT_EQ(ctx.scheduler().runs(), runs);
  EXPECT_EQ(ctx.machine().handle_store().resident_bytes(), 0u);
}

TEST(ExecutePath, MatrixExecuteIsUploadExecuteDistDownload) {
  // One execution path: execute(Matrix) must be bitwise the resident
  // path, with the same stats (no output gather phase), for every
  // algorithm that has different distribution plumbing.
  const index_t n = 40, k = 12;
  const int p = 8;
  const Matrix l = la::make_lower_triangular(311, n);
  const Matrix b = la::make_rhs(312, n, k);
  for (const model::Algorithm alg :
       {model::Algorithm::kIterative, model::Algorithm::kRecursive,
        model::Algorithm::kTrsm2D, model::Algorithm::kTrsv1D}) {
    TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = alg;
    Context mctx(p);
    const ExecResult m = mctx.plan(trsm_op(n, k, spec))->execute(l, b);

    Context dctx(p);
    auto plan = dctx.plan(trsm_op(n, k, spec));
    const DistExecResult d =
        plan->execute_dist(dctx.upload(l, plan->input_layout(0)),
                           dctx.upload(b, plan->input_layout(1)));
    const char* name = model::algorithm_name(alg);
    EXPECT_TRUE(m.x.equals(dctx.download(d.x))) << name;
    EXPECT_EQ(m.stats.critical_time, d.stats.critical_time) << name;
    ASSERT_EQ(m.stats.phase_max.size(), d.stats.phase_max.size()) << name;
    for (const auto& [phase, c] : d.stats.phase_max) {
      const sim::Cost mc = m.stats.phase_cost(phase);
      EXPECT_EQ(mc.msgs, c.msgs) << name << " " << phase;
      EXPECT_EQ(mc.words, c.words) << name << " " << phase;
      EXPECT_EQ(mc.flops, c.flops) << name << " " << phase;
    }
    EXPECT_EQ(m.stats.phase_max.count("output-collect"), 0u) << name;
  }
}

TEST(ExecutePath, OperandStaysResidentWhileItsBytesAreUnchanged) {
  const index_t n = 32, k = 8;
  Matrix l = la::make_lower_triangular(313, n);
  const Matrix b = la::make_rhs(314, n, k);
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  Context ctx(8);
  auto plan = ctx.plan(trsm_op(n, k, spec));
  const sim::HandleStore& store = ctx.machine().handle_store();

  const ExecResult r1 = plan->execute(l, b);
  // Only the operand and its Ltilde stay resident between calls (B and X
  // are released).
  const std::uint64_t resident = store.resident_bytes();
  EXPECT_EQ(resident, 2 * sizeof(double) * static_cast<std::uint64_t>(n * n));
  // Store ids taken by one call of `a`: B and X, plus the operand's when
  // the call uploads it (probe handles bracket the call).
  const auto ids_taken = [&](const Matrix& a, ExecResult& out) {
    const std::uint64_t before = ctx.upload(b, plan->input_layout(1)).id();
    out = plan->execute(a, b);
    return ctx.upload(b, plan->input_layout(1)).id() - before;
  };
  ExecResult r2;
  const std::uint64_t warm_ids = ids_taken(l, r2);
  EXPECT_EQ(store.resident_bytes(), resident);
  EXPECT_EQ(plan->diag_inversions(), 1u);
  // The warm residual divides by the kept norm of the lower triangle: the
  // same bits as the host check.
  EXPECT_EQ(r2.residual, la::trsm_residual(l, r2.x, b));

  // Bytes above the diagonal are never read, so changing one keeps the
  // operand: no upload, no inversion, and the X and residual of a fresh
  // plan for the changed matrix.
  Matrix above = l;
  above(0, n - 1) = 1e3;
  ExecResult ra;
  EXPECT_EQ(ids_taken(above, ra), warm_ids);
  EXPECT_EQ(plan->diag_inversions(), 1u);
  EXPECT_EQ(ra.stats.phase_max.count("inversion"), 0u);
  EXPECT_EQ(store.resident_bytes(), resident);
  Context fresh(8);
  const ExecResult ref = fresh.plan(trsm_op(n, k, spec))->execute(above, b);
  EXPECT_TRUE(ra.x.equals(ref.x));
  EXPECT_EQ(ra.residual, ref.residual);

  // One changed element of the lower triangle is a different operand:
  // re-upload, re-invert.
  l(n - 1, 0) += 1.0;
  const ExecResult r3 = plan->execute(l, b);
  EXPECT_EQ(plan->diag_inversions(), 2u);
  EXPECT_EQ(store.resident_bytes(), resident);  // the old copy was released
  EXPECT_FALSE(r3.x.equals(r1.x));
  EXPECT_LT(r3.residual, 1e-12);
}

TEST(ExecutePath, ResidualReadsOnlyTheSolvedTriangle) {
  // An operand may keep other data in its opposite triangle (say L and U
  // of an LU factorization in one array). Every variant solves and checks
  // only the triangle it names, so X and the residual are those of the
  // operand with that triangle zero, bit for bit.
  const index_t n = 32, k = 8;
  for (const model::Algorithm alg :
       {model::Algorithm::kIterative, model::Algorithm::kRecursive,
        model::Algorithm::kTrsm2D, model::Algorithm::kTrsv1D})
    for (const la::Uplo uplo : {la::Uplo::kLower, la::Uplo::kUpper})
      for (const bool trans : {false, true})
        for (const Side side : {Side::kLeft, Side::kRight}) {
          const Matrix t = uplo == la::Uplo::kLower
                               ? la::make_lower_triangular(331, n)
                               : la::make_upper_triangular(331, n);
          Matrix other = t;
          for (index_t i = 0; i < n; ++i)
            for (index_t j = 0; j < n; ++j)
              if (uplo == la::Uplo::kLower ? j > i : j < i)
                other(i, j) = 1e3 * la::element_hash(332, i, j);
          const Matrix b = side == Side::kLeft ? la::make_rhs(333, n, k)
                                               : la::make_rhs(334, k, n);
          TrsmSpec spec;
          spec.uplo = uplo;
          spec.transpose = trans;
          spec.side = side;
          spec.force_algorithm = true;
          spec.algorithm = alg;
          Context zero_ctx(4);
          Context other_ctx(4);
          const ExecResult zero =
              zero_ctx.plan(trsm_op(n, k, spec))->execute(t, b);
          const ExecResult r =
              other_ctx.plan(trsm_op(n, k, spec))->execute(other, b);
          const std::string what =
              std::string(model::algorithm_name(alg)) +
              (uplo == la::Uplo::kLower ? " lower" : " upper") +
              (trans ? " transposed" : "") +
              (side == Side::kLeft ? " left" : " right");
          EXPECT_TRUE(r.x.equals(zero.x)) << what;
          EXPECT_EQ(r.residual, zero.residual) << what;
          EXPECT_LT(r.residual, 1e-12) << what;
        }
}

struct VariantCase {
  la::Uplo uplo;
  bool trans;
  Side side;
  const char* name;
};

class ApiVariantSweep : public ::testing::TestWithParam<VariantCase> {};

TEST_P(ApiVariantSweep, SolvesAgainstDenseReference) {
  const VariantCase vc = GetParam();
  const index_t n = 24, k = 7;
  const Matrix t = vc.uplo == la::Uplo::kLower
                       ? la::make_lower_triangular(311, n)
                       : la::make_upper_triangular(312, n);
  const Matrix b = vc.side == Side::kLeft ? la::make_rhs(313, n, k)
                                          : la::make_rhs(314, k, n);

  TrsmSpec spec;
  spec.uplo = vc.uplo;
  spec.transpose = vc.trans;
  spec.side = vc.side;
  Context ctx(4);
  const index_t kernel_k = vc.side == Side::kLeft ? k : b.rows();
  const ExecResult r = ctx.plan(trsm_op(n, kernel_k, spec))->execute(t, b);

  // Dense reference: op(T) X = B (left) or X op(T) = B (right), solved by
  // the sequential kernels.
  const Matrix op = vc.trans ? t.transposed() : t;
  Matrix ref;
  const bool op_lower = (vc.uplo == la::Uplo::kLower) != vc.trans;
  if (vc.side == Side::kLeft) {
    ref = op_lower ? la::solve_lower(op, b) : la::solve_upper(op, b);
  } else {
    // X op(T) = B  <=>  op(T)^T X^T = B^T.
    const Matrix opt = op.transposed();
    const Matrix bt = b.transposed();
    ref = (op_lower ? la::solve_upper(opt, bt) : la::solve_lower(opt, bt))
              .transposed();
  }
  EXPECT_LT(la::max_abs_diff(r.x, ref), 1e-9) << vc.name;
  EXPECT_LT(r.residual, 1e-11) << vc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ApiVariantSweep,
    ::testing::Values(
        VariantCase{la::Uplo::kLower, false, Side::kLeft, "L X = B"},
        VariantCase{la::Uplo::kLower, true, Side::kLeft, "L^T X = B"},
        VariantCase{la::Uplo::kUpper, false, Side::kLeft, "U X = B"},
        VariantCase{la::Uplo::kUpper, true, Side::kLeft, "U^T X = B"},
        VariantCase{la::Uplo::kLower, false, Side::kRight, "X L = B"},
        VariantCase{la::Uplo::kLower, true, Side::kRight, "X L^T = B"},
        VariantCase{la::Uplo::kUpper, false, Side::kRight, "X U = B"},
        VariantCase{la::Uplo::kUpper, true, Side::kRight, "X U^T = B"}));

TEST(ApiOps, TriInvMatchesSequential) {
  const index_t n = 24;
  const Matrix l = la::make_lower_triangular(321, n);
  Context ctx(4);
  const ExecResult r = ctx.plan(tri_inv_op(n))->execute(l);
  EXPECT_LT(r.residual, 1e-11);
  const Matrix seq = la::tri_inv(la::Uplo::kLower, l);
  EXPECT_LT(la::max_abs_diff(r.x, seq), 1e-9);
}

TEST(ApiOps, CholeskyExecuteReportsFactorizationResidual) {
  // execute() on a cholesky_op plan returns the lower factor (its upper
  // triangle exactly zero) and reports ||L L^T - A|| / ||A||.
  const index_t n = 48;
  const Matrix a = la::make_spd(327, n);
  for (const int p : {4, 9, 16}) {
    Context ctx(p);
    const ExecResult r = ctx.plan(cholesky_op(n))->execute(a);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i + 1; j < n; ++j)
        ASSERT_EQ(r.x(i, j), 0.0) << "p = " << p;
    Matrix llt = la::matmul(r.x, r.x.transposed());
    llt.sub(a);
    EXPECT_DOUBLE_EQ(r.residual,
                     la::frobenius_norm(llt) / la::frobenius_norm(a))
        << "p = " << p;
    EXPECT_LT(r.residual, 1e-14) << "p = " << p;
  }
}

TEST(ApiOps, CholeskySolvePipelineSolvesSpdSystem) {
  const index_t n = 48, k = 6;
  const Matrix a = la::make_spd(323, n);
  const Matrix b = la::make_rhs(324, n, k);
  Context ctx(16);
  const ExecResult r = ctx.plan(cholesky_solve_op(n, k))->execute(a, b);
  EXPECT_LT(r.residual, 1e-10);
  // The pipeline reports its three stages.
  EXPECT_EQ(r.stats.phase_max.count("cholesky"), 1u);
  EXPECT_EQ(r.stats.phase_max.count("forward-trsm"), 1u);
  EXPECT_EQ(r.stats.phase_max.count("backward-trsm"), 1u);
  Matrix resid = la::matmul(a, r.x);
  resid.sub(b);
  EXPECT_LT(la::frobenius_norm(resid) / la::frobenius_norm(b), 1e-10);
}

TEST(ApiOps, CholeskySolveFromGenerators) {
  // Generator-fed execution: ranks fill only what they own; the result
  // matches the matrix-fed path exactly.
  const index_t n = 24, k = 4;
  const auto a_gen = [n](index_t i, index_t j) {
    if (i == j) return 4.0 + la::element_hash(5, i, i) * 0.5;
    return la::element_hash(5, std::min(i, j), std::max(i, j)) /
           static_cast<double>(n);
  };
  const auto b_gen = [](index_t i, index_t j) {
    return la::rhs_entry(6, i, j);
  };
  Matrix a(n, n), b(n, k);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = a_gen(i, j);
    for (index_t j = 0; j < k; ++j) b(i, j) = b_gen(i, j);
  }
  Context ctx(4);
  auto plan = ctx.plan(cholesky_solve_op(n, k));
  const ExecResult gen = plan->execute_generated(a_gen, b_gen);
  const ExecResult mat = plan->execute(a, b);
  EXPECT_LT(gen.residual, 1e-12);
  EXPECT_TRUE(gen.x.equals(mat.x));
  // Only the cholesky op accepts generators.
  auto trsm_plan = ctx.plan(trsm_op(n, k));
  EXPECT_THROW((void)trsm_plan->execute_generated(a_gen, b_gen), Error);
}

TEST(ApiOps, CholeskySolveOnNonSquareRankCount) {
  // p = 6: the pipeline runs on the 2 x 2 subgrid, surplus ranks idle.
  const index_t n = 20, k = 4;
  const Matrix a = la::make_spd(325, n);
  const Matrix b = la::make_rhs(326, n, k);
  Context ctx(6);
  const ExecResult r = ctx.plan(cholesky_solve_op(n, k))->execute(a, b);
  EXPECT_EQ(r.config.p1, 2);
  EXPECT_LT(r.residual, 1e-10);
}

TEST(ApiOps, Matmul3DMatchesSequentialGemm) {
  const index_t m = 24, inner = 16, k = 8;
  const Matrix a = la::make_dense(331, m, inner);
  const Matrix x = la::make_dense(332, inner, k);
  Context ctx(8);
  auto plan = ctx.plan(matmul3d_op(m, inner, k));
  EXPECT_EQ(plan->config().p1 * plan->config().p1 * plan->config().p2, 8);
  const ExecResult r = plan->execute(a, x);
  EXPECT_LT(la::max_abs_diff(r.x, la::matmul(a, x)), 1e-11);
}

TEST(ApiOps, Matmul2DMatchesSequentialGemm) {
  const index_t n = 16, k = 12;
  const Matrix a = la::make_dense(333, n, n);
  const Matrix x = la::make_dense(334, n, k);
  Context ctx(6);
  const ExecResult r = ctx.plan(matmul2d_op(n, k))->execute(a, x);
  EXPECT_LT(la::max_abs_diff(r.x, la::matmul(a, x)), 1e-11);
}

TEST(ApiOps, ExecuteRejectsMismatchedShapes) {
  Context ctx(4);
  auto plan = ctx.plan(trsm_op(16, 4));
  const Matrix l = la::make_lower_triangular(341, 16);
  const Matrix wrong_b = la::make_rhs(342, 16, 5);
  EXPECT_THROW((void)plan->execute(l, wrong_b), Error);
  const Matrix wrong_l = la::make_lower_triangular(343, 12);
  EXPECT_THROW((void)plan->execute(wrong_l, la::make_rhs(344, 12, 4)),
               Error);
}

TEST(ApiContext, BorrowedMachineIsReused) {
  sim::Machine machine(4);
  Context ctx(machine);
  EXPECT_EQ(&ctx.machine(), &machine);
  EXPECT_EQ(ctx.nprocs(), 4);
  const Matrix l = la::make_lower_triangular(361, 16);
  const Matrix b = la::make_rhs(362, 16, 4);
  const ExecResult r = ctx.plan(trsm_op(16, 4))->execute(l, b);
  EXPECT_LT(r.residual, 1e-12);
}

TEST(ApiScheduler, ExecuteBatchesReuseTheSameWorkerThreads) {
  const index_t n = 24, k = 6;
  const int p = 8;
  const Matrix l = la::make_lower_triangular(371, n);
  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k));

  // Capture the pool's thread ids through the same scheduler the plan
  // executions use: worker i always runs rank i.
  auto capture = [&] {
    std::vector<std::thread::id> ids(static_cast<std::size_t>(p));
    ctx.machine().run([&](sim::Rank& r) {
      ids[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
    });
    return ids;
  };

  const auto before = capture();
  const std::uint64_t runs_before = ctx.scheduler().runs();
  std::vector<Matrix> bs1, bs2;
  for (int i = 0; i < 3; ++i) {
    bs1.push_back(la::make_rhs(380 + i, n, k));
    bs2.push_back(la::make_rhs(390 + i, n, k));
  }
  (void)plan->execute_batch(l, bs1);
  (void)plan->execute_batch(l, bs2);
  const std::uint64_t runs_after = ctx.scheduler().runs();
  const auto after = capture();

  // Both batches dispatched onto the persistent pool (one run per batch),
  // and the pool's workers are the very same OS threads afterwards: no
  // thread was spawned or torn down between the two batches.
  EXPECT_EQ(runs_after - runs_before, 2u);
  EXPECT_EQ(before, after);
  EXPECT_EQ(ctx.scheduler().size(), p);
}

}  // namespace
}  // namespace catrsm::api
