// Tests for concurrent execution streams: several Contexts sharing one
// machine with overlapped simulator runs in flight (api::StreamPool /
// Plan::execute_dist_async), bitwise equivalence against serial serving,
// fault isolation between streams, and machine reuse after a faulted
// stream.
//
// The concurrent stress case doubles as the CI ThreadSanitizer target:
// TSan follows the rank fibers and watches the per-run transport, stall
// census, and handle-store paths race against each other across streams.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/catrsm.hpp"
#include "api/stream_pool.hpp"
#include "la/generate.hpp"
#include "sim/fault.hpp"
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

TEST(Streams, ConcurrentPoolMatchesSerialBitwise) {
  // Four tenants on one machine, a mixed bag of solve shapes, served
  // once serially and once with up to sim::kMaxStreams runs in
  // flight. Concurrency must be invisible in the results: solutions
  // bitwise identical, modeled costs and virtual clocks identical
  // (per-run state — mailboxes, clocks, counters — is private to each
  // stream by construction).
  const int tenants = 4;
  struct Shape {
    index_t n, k;
  };
  const std::vector<Shape> shapes{{48, 12}, {64, 8},  {32, 24}, {96, 16},
                                  {48, 32}, {64, 16}, {40, 8},  {56, 12},
                                  {48, 12}, {72, 8},  {32, 8},  {64, 24}};
  const int items = static_cast<int>(shapes.size());

  sim::Machine machine(8);
  std::vector<std::unique_ptr<Context>> ctxs;
  for (int t = 0; t < tenants; ++t)
    ctxs.push_back(std::make_unique<Context>(machine));

  std::vector<std::shared_ptr<Plan>> plans;
  std::vector<DistHandle> hls, hbs;
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    Context& ctx = *ctxs[static_cast<std::size_t>(i % tenants)];
    auto plan = ctx.plan(trsm_op(shapes[u].n, shapes[u].k, iterative_spec()));
    hls.push_back(ctx.upload(
        la::make_lower_triangular(900 + static_cast<std::uint64_t>(i),
                                  shapes[u].n),
        plan->input_layout(0)));
    hbs.push_back(ctx.upload(
        la::make_rhs(1900 + static_cast<std::uint64_t>(i), shapes[u].n,
                     shapes[u].k),
        plan->input_layout(1)));
    plans.push_back(std::move(plan));
  }

  // Warmup pass: populate each plan's diagonal-inverse cache so both
  // compared passes reuse it — otherwise the serial pass would carry the
  // one-time inversion phase the concurrent pass then skips, and the
  // modeled costs would differ for a reason that has nothing to do with
  // concurrency.
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    (void)plans[u]->execute_dist(hls[u], hbs[u]);
  }

  std::vector<Matrix> xs(static_cast<std::size_t>(items));
  std::vector<sim::Cost> costs(static_cast<std::size_t>(items));
  std::vector<double> crit(static_cast<std::size_t>(items));
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const DistExecResult r = plans[u]->execute_dist(hls[u], hbs[u]);
    xs[u] = ctxs[static_cast<std::size_t>(i % tenants)]->download(r.x);
    costs[u] = r.algorithm_cost();
    crit[u] = r.stats.critical_time;
  }

  StreamPool pool;
  std::vector<int> pool_tenant;
  for (int t = 0; t < tenants; ++t)
    pool_tenant.push_back(pool.add_tenant(*ctxs[static_cast<std::size_t>(t)]));
  std::vector<int> req_of_id;
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const int id =
        pool.submit(pool_tenant[static_cast<std::size_t>(i % tenants)],
                    plans[u], hls[u], hbs[u]);
    if (static_cast<std::size_t>(id) >= req_of_id.size())
      req_of_id.resize(static_cast<std::size_t>(id) + 1, -1);
    req_of_id[static_cast<std::size_t>(id)] = i;
  }
  int completed = 0;
  for (;;) {
    const auto batch = pool.wait_some();
    if (batch.empty()) break;
    for (const auto& c : batch) {
      ASSERT_FALSE(c.error) << "stream " << c.id << " faulted";
      const std::size_t u =
          static_cast<std::size_t>(req_of_id[static_cast<std::size_t>(c.id)]);
      const Matrix x =
          ctxs[static_cast<std::size_t>(c.tenant)]->download(c.result.x);
      EXPECT_TRUE(x.equals(xs[u])) << "request " << u << " not bitwise";
      const sim::Cost cc = c.result.algorithm_cost();
      EXPECT_EQ(cc.msgs, costs[u].msgs);
      EXPECT_EQ(cc.words, costs[u].words);
      EXPECT_EQ(cc.flops, costs[u].flops);
      EXPECT_EQ(c.result.stats.critical_time, crit[u]);
      ++completed;
    }
  }
  EXPECT_EQ(completed, items);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Streams, FaultedStreamIsIsolatedAndMachineStaysUsable) {
  // A kill fault armed for ONE stream must abort that stream alone: a
  // healthy stream launched (after disarm) while the doomed one is still
  // in flight completes bitwise clean, the doomed stream's operands are
  // poisoned exactly like a serial faulted run's, and the machine keeps
  // serving runs afterwards.
  const index_t n = 48, k = 12;
  sim::Machine machine(4);
  Context victim(machine);
  Context healthy(machine);

  auto vplan = victim.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle vl =
      victim.upload(la::make_lower_triangular(951, n), vplan->input_layout(0));
  const DistHandle vb =
      victim.upload(la::make_rhs(952, n, k), vplan->input_layout(1));

  auto hplan = healthy.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = healthy.upload(la::make_lower_triangular(953, n),
                                       hplan->input_layout(0));
  const DistHandle hb =
      healthy.upload(la::make_rhs(954, n, k), hplan->input_layout(1));
  const Matrix x_ref = healthy.download(hplan->execute_dist(hl, hb).x);

  // Fault plans are captured per run at launch: arm, launch the victim,
  // disarm, launch the healthy stream — both now fly concurrently.
  machine.arm_fault(sim::FaultPlan{sim::FaultClass::kKillRank, 71});
  DistTicket doomed = vplan->execute_dist_async(vl, vb);
  machine.disarm_fault();
  DistTicket clean = hplan->execute_dist_async(hl, hb);

  EXPECT_THROW((void)doomed.wait(), Error);
  const DistExecResult ok = clean.wait();
  EXPECT_TRUE(healthy.download(ok.x).equals(x_ref));

  // Containment: only the faulted stream's operands are poisoned.
  EXPECT_TRUE(vl.poisoned());
  EXPECT_FALSE(hl.poisoned());
  EXPECT_FALSE(hb.poisoned());

  // The machine (and the victim tenant, after repair) keeps working.
  victim.repair(vl);
  victim.repair(vb);
  const DistExecResult retry = vplan->execute_dist(vl, vb);
  const Matrix x_retry = victim.download(retry.x);
  Context fresh(machine);
  auto fplan = fresh.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle fl =
      fresh.upload(la::make_lower_triangular(951, n), fplan->input_layout(0));
  const DistHandle fb =
      fresh.upload(la::make_rhs(952, n, k), fplan->input_layout(1));
  EXPECT_TRUE(fresh.download(fplan->execute_dist(fl, fb).x).equals(x_retry));
}

TEST(Streams, FailedRunIsACompletionErrorBesideAHealthyTenant) {
  // A cholesky-solve tenant handed a matrix that is not positive definite
  // fails inside its run. The pool hands that back as the request's
  // Completion::error instead of throwing, and a healthy tenant served
  // alongside gets completions bitwise equal to serial execute_dist.
  const index_t n = 32, k = 8;
  const int items = 3;
  sim::Machine machine(4);
  Context bad(machine);
  Context good(machine);

  auto bplan = bad.plan(cholesky_solve_op(n, k));
  Matrix not_spd = la::make_spd(961, n);
  not_spd(0, 0) = -1.0;
  const DistHandle ba = bad.upload(not_spd, bplan->input_layout(0));
  const DistHandle bb =
      bad.upload(la::make_rhs(962, n, k), bplan->input_layout(1));

  auto gplan = good.plan(cholesky_solve_op(n, k));
  std::vector<DistHandle> gas, gbs;
  std::vector<Matrix> xs;
  std::vector<sim::Cost> costs;
  std::vector<double> crit;
  for (int i = 0; i < items; ++i) {
    const std::uint64_t seed = 970 + 2 * static_cast<std::uint64_t>(i);
    gas.push_back(good.upload(la::make_spd(seed, n), gplan->input_layout(0)));
    gbs.push_back(
        good.upload(la::make_rhs(seed + 1, n, k), gplan->input_layout(1)));
    const DistExecResult r = gplan->execute_dist(gas.back(), gbs.back());
    xs.push_back(good.download(r.x));
    costs.push_back(r.algorithm_cost());
    crit.push_back(r.stats.critical_time);
  }

  StreamPool pool;
  const int tb = pool.add_tenant(bad);
  const int tg = pool.add_tenant(good);
  const int bad_id = pool.submit(tb, bplan, ba, bb);
  std::vector<int> good_ids;
  for (int i = 0; i < items; ++i)
    good_ids.push_back(pool.submit(tg, gplan, gas[static_cast<std::size_t>(i)],
                                   gbs[static_cast<std::size_t>(i)]));

  int failed = 0;
  int served = 0;
  for (const auto& c : pool.drain()) {
    if (c.id == bad_id) {
      ASSERT_TRUE(c.error);
      EXPECT_FALSE(c.result.x.valid());
      EXPECT_THROW(std::rethrow_exception(c.error), Error);
      ++failed;
      continue;
    }
    ASSERT_FALSE(c.error) << "healthy request " << c.id << " failed";
    std::size_t u = 0;
    while (good_ids[u] != c.id) ++u;
    EXPECT_TRUE(good.download(c.result.x).equals(xs[u]));
    const sim::Cost cc = c.result.algorithm_cost();
    EXPECT_EQ(cc.msgs, costs[u].msgs);
    EXPECT_EQ(cc.words, costs[u].words);
    EXPECT_EQ(cc.flops, costs[u].flops);
    EXPECT_EQ(c.result.stats.critical_time, crit[u]);
    ++served;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(served, items);
  // No fault was injected, so the failed request's operands stay usable.
  EXPECT_FALSE(ba.poisoned());
  EXPECT_TRUE(bad.download(ba).equals(not_spd));
}

TEST(Streams, CacheMissOverlappingAHitReplacesTheCachedInverse) {
  // One iterative plan, two operands: a cache hit on L1 and a miss on L2
  // fly together. The hit holds its own reference to L1's Ltilde, so the
  // miss replaces the cache even while the hit is still in flight, and
  // the next solve against L2 reuses the miss's inverse.
  const index_t n = 48, k = 12;
  const Matrix l1 = la::make_lower_triangular(981, n);
  const Matrix l2 = la::make_lower_triangular(982, n);
  const Matrix b1 = la::make_rhs(983, n, k);
  const Matrix b2 = la::make_rhs(984, n, k);

  Context ref(4);
  auto ref_plan = ref.plan(trsm_op(n, k, iterative_spec()));
  const auto serial = [&](const Matrix& l, const Matrix& b) {
    return ref.download(
        ref_plan
            ->execute_dist(ref.upload(l, ref_plan->input_layout(0)),
                           ref.upload(b, ref_plan->input_layout(1)))
            .x);
  };
  const Matrix x1_ref = serial(l1, b1);
  const Matrix x2_ref = serial(l2, b2);

  sim::Machine machine(4);
  Context ctx(machine);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl1 = ctx.upload(l1, plan->input_layout(0));
  const DistHandle hl2 = ctx.upload(l2, plan->input_layout(0));
  const DistHandle hb1 = ctx.upload(b1, plan->input_layout(1));
  const DistHandle hb2 = ctx.upload(b2, plan->input_layout(1));
  (void)plan->execute_dist(hl1, hb1);  // warm the cache with L1
  const std::uint64_t inversions = plan->diag_inversions();

  DistTicket hit = plan->execute_dist_async(hl1, hb1);
  DistTicket miss = plan->execute_dist_async(hl2, hb2);
  const DistExecResult rmiss = miss.wait();
  const DistExecResult rhit = hit.wait();
  EXPECT_EQ(rhit.stats.phase_max.count("inversion"), 0u);
  EXPECT_EQ(rmiss.stats.phase_max.count("inversion"), 1u);
  EXPECT_TRUE(ctx.download(rhit.x).equals(x1_ref));
  EXPECT_TRUE(ctx.download(rmiss.x).equals(x2_ref));
  EXPECT_EQ(plan->diag_inversions(), inversions + 1);

  const DistExecResult again = plan->execute_dist(hl2, hb2);
  EXPECT_EQ(again.stats.phase_max.count("inversion"), 0u);
  EXPECT_EQ(plan->diag_inversions(), inversions + 1);
  EXPECT_TRUE(ctx.download(again.x).equals(x2_ref));
}

TEST(Streams, ReplicaMissOverlappingAHitReplacesTheReplica) {
  // The recursive TRSM's twin of the case above: a hit replaying L1's
  // replica flies with a miss recording L2's. Both match a serial run bit
  // for bit, and the next solve against L2 replays the miss's replica.
  const index_t n = 128, k = 128;  // a column split, recursion below n0
  const Matrix l1 = la::make_lower_triangular(985, n);
  const Matrix l2 = la::make_lower_triangular(986, n);
  const Matrix b1 = la::make_rhs(987, n, k);
  const Matrix b2 = la::make_rhs(988, n, k);
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kRecursive;

  Context ref(8);
  auto ref_plan = ref.plan(trsm_op(n, k, spec));
  const auto serial = [&](const Matrix& l, const Matrix& b) {
    return ref.download(
        ref_plan
            ->execute_dist(ref.upload(l, ref_plan->input_layout(0)),
                           ref.upload(b, ref_plan->input_layout(1)))
            .x);
  };
  const Matrix x1_ref = serial(l1, b1);
  const Matrix x2_ref = serial(l2, b2);

  sim::Machine machine(8);
  Context ctx(machine);
  auto plan = ctx.plan(trsm_op(n, k, spec));
  const DistHandle hl1 = ctx.upload(l1, plan->input_layout(0));
  const DistHandle hl2 = ctx.upload(l2, plan->input_layout(0));
  const DistHandle hb1 = ctx.upload(b1, plan->input_layout(1));
  const DistHandle hb2 = ctx.upload(b2, plan->input_layout(1));
  (void)plan->execute_dist(hl1, hb1);  // record L1's replica

  DistTicket hit = plan->execute_dist_async(hl1, hb1);
  DistTicket miss = plan->execute_dist_async(hl2, hb2);
  const DistExecResult rmiss = miss.wait();
  const DistExecResult rhit = hit.wait();
  EXPECT_EQ(rhit.stats.phase_max.count("replication"), 0u);
  EXPECT_EQ(rmiss.stats.phase_max.count("replication"), 1u);
  EXPECT_TRUE(ctx.download(rhit.x).equals(x1_ref));
  EXPECT_TRUE(ctx.download(rmiss.x).equals(x2_ref));

  const DistExecResult again = plan->execute_dist(hl2, hb2);
  EXPECT_EQ(again.stats.phase_max.count("replication"), 0u);
  EXPECT_TRUE(ctx.download(again.x).equals(x2_ref));
}

}  // namespace
}  // namespace catrsm::api
