// The detector-coverage matrix for seeded fault injection (sim/fault):
// every injectable fault class, armed against a workload that exposes it,
// must be caught by the expected named detector with a structured
// check::FaultReport — no seeded fault may escape as a silent wrong
// answer or an undeclared hang. Also here: FaultPlan spec parsing and
// env arming, the disarmed/armed cost-purity contract, and the
// api-level graceful-degradation path (typed errors, handle poisoning,
// repair and retry).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/catrsm.hpp"
#include "coll/collectives.hpp"
#include "la/generate.hpp"
#include "sim/check/fault_report.hpp"
#include "sim/check/trace.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace {

using catrsm::Error;
using catrsm::la::index_t;
using catrsm::la::Matrix;
using catrsm::sim::Buffer;
using catrsm::sim::Comm;
using catrsm::sim::FaultClass;
using catrsm::sim::FaultPlan;
using catrsm::sim::Machine;
using catrsm::sim::Rank;
using catrsm::sim::RunStats;
namespace api = catrsm::api;
namespace check = catrsm::sim::check;
namespace coll = catrsm::coll;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_ = false;
  std::string old_;
};

/// `rounds` ring exchanges on one tag, payload contents asserted at every
/// receive — the canonical point-to-point workload of the matrix. A run
/// that completes has provably delivered every payload intact and in
/// order.
void ring_body(Rank& r, int rounds) {
  const int p = r.nprocs();
  const int right = (r.id() + 1) % p;
  const int left = (r.id() + p - 1) % p;
  for (int round = 0; round < rounds; ++round) {
    r.send(right, std::vector<double>{static_cast<double>(r.id()),
                                      static_cast<double>(round)},
           7);
    const Buffer got = r.recv(left, 7);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], static_cast<double>(left));
    EXPECT_EQ(got[1], static_cast<double>(round));
  }
}

void ping_pong_works(Machine& m) {
  const RunStats stats = m.run([](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>{42.0}, 3);
    } else if (r.id() == 1) {
      const Buffer got = r.recv(0, 3);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42.0);
    }
  });
  EXPECT_EQ(stats.per_rank[0].msgs, 1.0);
}

/// Arm `plan` on `m`, run `body`, and return the FaultReport of the error
/// the run must surface. Asserts at least one injection actually fired.
template <typename Fn>
check::FaultReport expect_detected(Machine& m, const FaultPlan& plan,
                                   Fn body) {
  m.arm_fault(plan);
  check::FaultReport report;
  try {
    m.run(body);
    ADD_FAILURE() << "run completed under armed fault " << plan.describe()
                  << " (injections: " << m.fault_injector()->injections()
                  << ")";
    return report;
  } catch (const std::exception& e) {
    report = check::report_fault(m, e);
  }
  EXPECT_GE(report.injections, 1) << report.to_string();
  EXPECT_TRUE(report.detected()) << report.to_string();
  // Graceful degradation: the machine survives the fault.
  m.disarm_fault();
  ping_pong_works(m);
  return report;
}

// ---------------------------------------------------------------------------
// FaultPlan spec parsing and env arming

TEST(FaultPlanSpec, ParsesClassSeedAndRate) {
  const auto p1 = FaultPlan::parse("corrupt:42");
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->cls, FaultClass::kCorrupt);
  EXPECT_EQ(p1->seed, 42u);
  EXPECT_EQ(p1->rate, 8u);

  const auto p2 = FaultPlan::parse("drop:7:4");
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->cls, FaultClass::kDrop);
  EXPECT_EQ(p2->seed, 7u);
  EXPECT_EQ(p2->rate, 4u);

  for (const char* spec : {"dup:0", "delay:1", "skew:2", "kill:3"})
    EXPECT_TRUE(FaultPlan::parse(spec).has_value()) << spec;
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "corrupt", "corrupt:", "banana:1", "corrupt:x", "corrupt:1:0",
        "corrupt:1:x", "corrupt:1:2:3", ":5"})
    EXPECT_FALSE(FaultPlan::parse(spec).has_value()) << spec;
}

TEST(FaultPlanSpec, EnvArmsTheMachine) {
  ScopedEnv v("CATRSM_SIM_FAULT", "corrupt:5");
  Machine m(2);
  ASSERT_NE(m.fault_injector(), nullptr);
  EXPECT_EQ(m.fault_injector()->plan().cls, FaultClass::kCorrupt);
  EXPECT_EQ(m.fault_injector()->plan().seed, 5u);
}

TEST(FaultPlanSpec, MalformedEnvWarnsAndStaysDisarmed) {
  ScopedEnv v("CATRSM_SIM_FAULT", "garbage");
  Machine m(2);
  EXPECT_EQ(m.fault_injector(), nullptr);
  ping_pong_works(m);
}

// ---------------------------------------------------------------------------
// The coverage matrix: (fault class x detector)

TEST(FaultMatrix, DropIsDeclaredAsDeadlock) {
  // Every delivery dropped (rate 1): all receives starve, and the
  // wait-for-graph must DECLARE the stall — a hang is a matrix failure.
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kDrop, 11, 1},
      [](Rank& r) { ring_body(r, 1); });
  EXPECT_EQ(report.detector, "deadlock-wfg") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kDrop);
  EXPECT_NE(report.diagnostics.find("deadlock"), std::string::npos);
}

TEST(FaultMatrix, DropWithLaterTrafficIsASequenceGap) {
  // Rate 2: some deliveries on an edge drop while later ones pass; the
  // receiver then observes a sequence-number gap at the next take.
  bool gap_seen = false;
  for (std::uint64_t seed = 0; seed < 16 && !gap_seen; ++seed) {
    Machine m(4);
    m.arm_fault(FaultPlan{FaultClass::kDrop, seed, 2});
    try {
      m.run([](Rank& r) { ring_body(r, 4); });
    } catch (const std::exception& e) {
      const auto report = check::report_fault(m, e);
      ASSERT_TRUE(report.detected()) << report.to_string();
      if (report.detector == "sequence-check") {
        EXPECT_NE(report.diagnostics.find("gap"), std::string::npos)
            << report.to_string();
        gap_seen = true;
      } else {
        EXPECT_EQ(report.detector, "deadlock-wfg") << report.to_string();
      }
    }
  }
  EXPECT_TRUE(gap_seen) << "no seed in [0, 16) produced a sequence gap";
}

TEST(FaultMatrix, ConsumedDuplicateFailsTheSequenceCheck) {
  // Two rounds on one tag: the duplicated round-1 payload is taken by the
  // round-2 receive, which must fail sequence verification rather than
  // hand back stale (wrong) data.
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kDuplicate, 3, 1},
      [](Rank& r) { ring_body(r, 2); });
  EXPECT_EQ(report.detector, "sequence-check") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kDuplicate);
}

TEST(FaultMatrix, UnconsumedDuplicateTripsTheResidualSweep) {
  // One round: the duplicate is never received, the run "completes" — and
  // the end-of-run mailbox sweep must refuse to call it clean.
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kDuplicate, 3, 1},
      [](Rank& r) { ring_body(r, 1); });
  EXPECT_EQ(report.detector, "residual-sweep") << report.to_string();
  EXPECT_NE(report.diagnostics.find("residue"), std::string::npos);
}

TEST(FaultMatrix, CorruptionFailsTheLiveChecksum) {
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kCorrupt, 17, 1},
      [](Rank& r) { ring_body(r, 1); });
  EXPECT_EQ(report.detector, "payload-checksum") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kCorrupt);
  EXPECT_GE(report.injections, 1);
  EXPECT_FALSE(report.injection_log.empty());
}

TEST(FaultMatrix, CorruptionIsCaughtByTraceReplayAlone) {
  // With live transport verification off, replaying a clean recorded
  // trace against the armed machine is what exposes the corruption.
  Machine m(4);
  m.set_tracing(true, /*capture_payloads=*/true);
  m.run([](Rank& r) { ring_body(r, 2); });
  const check::Trace trace = m.take_trace();
  m.set_tracing(false);

  FaultPlan plan{FaultClass::kCorrupt, 17, 1};
  plan.verify_transport = false;
  m.arm_fault(plan);
  try {
    (void)check::replay(m, trace);
    FAIL() << "replay accepted corrupted transport";
  } catch (const std::exception& e) {
    const auto report = check::report_fault(m, e);
    EXPECT_EQ(report.detector, "trace-replay") << report.to_string();
    EXPECT_GE(report.injections, 1);
  }
  m.disarm_fault();
  ping_pong_works(m);
}

TEST(FaultMatrix, DelayEverywhereIsDeclaredAsDeadlock) {
  // Rate 1 holds back every delivery; nothing ever flushes the held
  // messages, so the starvation must surface as a DECLARED deadlock.
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kDelay, 23, 1},
      [](Rank& r) { ring_body(r, 1); });
  EXPECT_EQ(report.detector, "deadlock-wfg") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kDelay);
}

TEST(FaultMatrix, DelayReorderingFailsTheSequenceCheck) {
  // Moderate rate over several rounds on one tag: a held-back message
  // flushed behind a later same-tag delivery arrives out of order.
  bool reorder_seen = false;
  for (std::uint64_t seed = 0; seed < 16 && !reorder_seen; ++seed) {
    Machine m(4);
    m.arm_fault(FaultPlan{FaultClass::kDelay, seed, 3});
    try {
      m.run([](Rank& r) { ring_body(r, 4); });
      // A delay that flushed back into order is a correct completion
      // (the in-body payload asserts above prove it) — not an escape.
    } catch (const std::exception& e) {
      const auto report = check::report_fault(m, e);
      ASSERT_TRUE(report.detected()) << report.to_string();
      if (report.detector == "sequence-check") reorder_seen = true;
      else EXPECT_EQ(report.detector, "deadlock-wfg") << report.to_string();
    }
  }
  EXPECT_TRUE(reorder_seen) << "no seed in [0, 16) produced a reorder";
}

TEST(FaultMatrix, SkewedCountsFailTheCollectiveMatcher) {
  Machine m(4);
  m.set_collective_checking(true);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kSkewCollective, 29, 1}, [](Rank& r) {
        Comm world = Comm::world(r);
        const coll::Counts counts(4, 2);
        (void)coll::allgather(world, Buffer(std::vector<double>(2, 1.0)),
                              counts);
      });
  EXPECT_EQ(report.detector, "collective-matcher") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kSkewCollective);
  EXPECT_NE(report.diagnostics.find("counts disagree"), std::string::npos)
      << report.to_string();
}

TEST(FaultMatrix, SkewedRootFailsTheCollectiveMatcher) {
  Machine m(4);
  m.set_collective_checking(true);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kSkewCollective, 31, 1}, [](Rank& r) {
        Comm world = Comm::world(r);
        const coll::Counts counts(4, 2);
        // Every rank holds the full payload so a victim rotated INTO the
        // root role still passes the local size checks — the matcher has
        // to be what catches the disagreement.
        (void)coll::scatter(world, /*root=*/0,
                            Buffer(std::vector<double>(8, 1.0)), counts);
      });
  EXPECT_EQ(report.detector, "collective-matcher") << report.to_string();
  EXPECT_NE(report.diagnostics.find("roots disagree"), std::string::npos)
      << report.to_string();
}

TEST(FaultMatrix, KilledRankSurfacesAsRankAbort) {
  Machine m(4);
  const auto report = expect_detected(
      m, FaultPlan{FaultClass::kKillRank, 37},
      [](Rank& r) { ring_body(r, 4); });
  EXPECT_EQ(report.detector, "rank-abort") << report.to_string();
  EXPECT_EQ(report.injected, FaultClass::kKillRank);
  EXPECT_EQ(report.injections, 1);  // one victim, one death site
  EXPECT_NE(report.diagnostics.find("killed"), std::string::npos);
}

TEST(FaultMatrix, NoSeededFaultEscapesAcrossSeeds) {
  // The matrix's global guarantee, swept over seeds at the default rate:
  // every armed run either completes with every in-body payload assert
  // passing (a fault that landed harmlessly — e.g. a delay flushed back
  // into order — is a correct completion, not an escape) or surfaces an
  // error a named detector claims.
  const FaultClass classes[] = {FaultClass::kDrop,  FaultClass::kDuplicate,
                                FaultClass::kCorrupt, FaultClass::kDelay,
                                FaultClass::kSkewCollective,
                                FaultClass::kKillRank};
  const auto body = [](Rank& r) {
    ring_body(r, 3);
    Comm world = Comm::world(r);
    const int p = r.nprocs();
    const coll::Counts counts(static_cast<std::size_t>(p), 2);
    const Buffer got = coll::allgather(
        world,
        Buffer(std::vector<double>{static_cast<double>(r.id()),
                                   static_cast<double>(r.id())}),
        counts);
    ASSERT_EQ(got.size(), 2u * static_cast<std::size_t>(p));
    for (int w = 0; w < p; ++w)
      EXPECT_EQ(got[static_cast<std::size_t>(2 * w)],
                static_cast<double>(w));
  };
  // Every seed at p = 4; seed 0 at p = 1024, where an armed run must not
  // build state for every rank pair.
  struct Case {
    int p;
    std::uint64_t seeds;
  };
  for (const Case c : {Case{4, 6}, Case{1024, 1}}) {
    for (const FaultClass cls : classes) {
      for (std::uint64_t seed = 0; seed < c.seeds; ++seed) {
        Machine m(c.p);
        m.set_collective_checking(true);
        m.arm_fault(FaultPlan{cls, seed});
        try {
          m.run(body);
        } catch (const std::exception& e) {
          const auto report = check::report_fault(m, e);
          EXPECT_TRUE(report.detected())
              << "p = " << c.p << ": fault escaped as an unclassified "
              << "error: " << report.to_string();
          EXPECT_GE(report.injections, 1) << report.to_string();
        }
      }
    }
  }
}

TEST(FaultMatrix, CollectiveFaultSitesDependOnlyOnTheSeed) {
  // Several workers hand out communicator epochs in whatever order their
  // ranks first look a group up, and collective tags carry the epoch. The
  // corruption sites, and so the result bits, must not follow that order.
  ScopedEnv workers("CATRSM_SIM_WORKERS", "4");
  constexpr int kP = 12;
  FaultPlan plan{FaultClass::kCorrupt, 5, 3};
  plan.verify_transport = false;  // let the corrupted run complete
  std::vector<std::vector<double>> first;
  int first_injections = -1;
  for (int trial = 0; trial < 8; ++trial) {
    Machine m(kP);
    m.arm_fault(plan);
    std::vector<std::vector<double>> results(kP);
    m.run([&results](Rank& r) {
      Comm world = Comm::world(r);
      std::vector<double> mine(24);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = 1.0 + r.id() + 0.125 * static_cast<double>(i);
      std::vector<double>& out = results[static_cast<std::size_t>(r.id())];
      for (const Comm& comm :
           {world.strided_fiber(2), world.strided_fiber(3), world}) {
        const Buffer sum = coll::allreduce(comm, Buffer(mine));
        out.insert(out.end(), sum.begin(), sum.end());
      }
    });
    const int injections = m.fault_injector()->injections();
    EXPECT_GE(injections, 1);
    if (trial == 0) {
      first = std::move(results);
      first_injections = injections;
      continue;
    }
    EXPECT_EQ(injections, first_injections) << "trial " << trial;
    for (int r = 0; r < kP; ++r) {
      const auto& got = results[static_cast<std::size_t>(r)];
      const auto& want = first[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << "trial " << trial << ", rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost purity: arming that never fires adds nothing to the model

TEST(FaultCost, ArmedButUnfiredRunMatchesDisarmedBitwise) {
  const auto body = [](Rank& r) {
    ring_body(r, 2);
    Comm world = Comm::world(r);
    (void)coll::allreduce(world, Buffer(std::vector<double>(4, 1.0)));
  };
  for (const int p : {4, 1024}) {
    Machine plain(p);
    const RunStats off = plain.run(body);

    Machine armed(p);
    // A rate so sparse this workload's sites never fire: the verification
    // stamps ride along, but modeled S/W/F and clocks must not move.
    armed.arm_fault(FaultPlan{FaultClass::kCorrupt, 1, 4000000000u});
    const RunStats on = armed.run(body);
    ASSERT_EQ(armed.fault_injector()->injections(), 0) << "p = " << p;

    EXPECT_EQ(off.critical_time, on.critical_time) << "p = " << p;
    ASSERT_EQ(off.per_rank.size(), on.per_rank.size());
    for (std::size_t i = 0; i < off.per_rank.size(); ++i) {
      EXPECT_EQ(off.per_rank[i].msgs, on.per_rank[i].msgs);
      EXPECT_EQ(off.per_rank[i].words, on.per_rank[i].words);
      EXPECT_EQ(off.per_rank[i].flops, on.per_rank[i].flops);
    }
  }
}

// ---------------------------------------------------------------------------
// api-level graceful degradation: typed errors, poisoning, repair

TEST(FaultApi, FaultedRunPoisonsInputsAndRepairRecovers) {
  const index_t n = 32, k = 8;
  const Matrix l = catrsm::la::make_lower_triangular(601, n);
  const Matrix b = catrsm::la::make_rhs(602, n, k);

  api::Context ctx(4);
  auto plan = ctx.plan(api::trsm_op(n, k));
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const api::DistHandle hb = ctx.upload(b, plan->input_layout(1));
  const Matrix x_ref = ctx.download(plan->execute_dist(hl, hb).x);

  const std::uint64_t epoch_before = hl.epoch();
  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 41});
  try {
    (void)plan->execute_dist(hl, hb);
    FAIL() << "execute_dist completed under an armed kill fault";
  } catch (const std::exception& e) {
    const auto report = check::report_fault(ctx.machine(), e);
    EXPECT_EQ(report.detector, "rank-abort") << report.to_string();
  }
  ctx.machine().disarm_fault();

  // The failed run may have left resident blocks half-rewritten: both
  // inputs are poisoned, every read fails fast with a typed error, and
  // the epoch bump invalidates content-keyed caches (diag-inverse reuse).
  EXPECT_TRUE(hl.poisoned());
  EXPECT_TRUE(hb.poisoned());
  EXPECT_NE(hl.epoch(), epoch_before);
  EXPECT_THROW((void)ctx.download(hl), api::PoisonedOperandError);
  EXPECT_THROW((void)plan->execute_dist(hl, hb),
               api::PoisonedOperandError);

  // repair() re-uploads from the recorded source and clears the flag.
  ctx.repair(hl);
  ctx.repair(hb);
  EXPECT_FALSE(hl.poisoned());
  EXPECT_TRUE(ctx.download(hl).equals(l));
  const Matrix x_retry = ctx.download(plan->execute_dist(hl, hb).x);
  EXPECT_TRUE(x_retry.equals(x_ref));
}

TEST(FaultApi, FaultedBatchPoisonsWholeRunAndRepairRecovers) {
  // A batch is ONE simulated run over many panels: a fault during any
  // panel poisons EVERY operand the run touched (the caller cannot know
  // how far the stream got), and repair + rerun recovers bitwise.
  const index_t n = 32, k = 8;
  const int items = 3;
  const Matrix l = catrsm::la::make_lower_triangular(631, n);
  std::vector<Matrix> bs;
  for (int i = 0; i < items; ++i)
    bs.push_back(catrsm::la::make_rhs(640 + static_cast<std::uint64_t>(i),
                                      n, k));

  api::Context ctx(4);
  auto plan = ctx.plan(api::trsm_op(n, k));
  const api::BatchResult ref = plan->execute_batch(l, bs);

  // The handle-level form of the same stream, so poisoning is observable.
  api::Program prog(ctx);
  std::vector<api::DistHandle> handles{
      ctx.upload(l, plan->input_layout(0))};
  const auto na = prog.input(n, n);
  for (const Matrix& b : bs) {
    handles.push_back(ctx.upload(b, plan->input_layout(1)));
    const auto nb = prog.input(n, k);
    prog.mark_output(prog.add(plan, {na, nb}));
  }

  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 45});
  try {
    (void)prog.run(handles);
    FAIL() << "batch completed under an armed kill fault";
  } catch (const std::exception& e) {
    const auto report = check::report_fault(ctx.machine(), e);
    EXPECT_EQ(report.detector, "rank-abort") << report.to_string();
  }
  ctx.machine().disarm_fault();

  // Whole-run poison semantics: the operand AND every panel of the batch.
  for (const api::DistHandle& h : handles) EXPECT_TRUE(h.poisoned());
  EXPECT_THROW((void)prog.run(handles), api::PoisonedOperandError);

  for (const api::DistHandle& h : handles) ctx.repair(h);
  for (const api::DistHandle& h : handles) EXPECT_FALSE(h.poisoned());
  const api::Program::Result retry = prog.run(handles);
  for (int i = 0; i < items; ++i) {
    const std::size_t j = static_cast<std::size_t>(i);
    EXPECT_TRUE(ctx.download(retry.outputs[j])
                    .equals(ref.xs[j]));
  }

  // And the convenience wrapper recovers by itself: it never reuses a
  // poisoned operand (the plan re-uploads it), so a faulted
  // execute_batch just needs a retry.
  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 45});
  EXPECT_THROW((void)plan->execute_batch(l, bs), std::exception);
  ctx.machine().disarm_fault();
  const api::BatchResult again = plan->execute_batch(l, bs);
  for (int i = 0; i < items; ++i)
    EXPECT_TRUE(again.xs[static_cast<std::size_t>(i)]
                    .equals(ref.xs[static_cast<std::size_t>(i)]));
}

TEST(FaultApi, FaultedMatrixExecuteRetriesWithAFreshOperand) {
  // Plan::execute keeps the iterative TRSM's last operand resident; a
  // faulted run poisons that handle, and the next call must upload the
  // operand again rather than reuse (or fail on) the poisoned blocks.
  const index_t n = 32, k = 8;
  const Matrix l = catrsm::la::make_lower_triangular(651, n);
  const Matrix b = catrsm::la::make_rhs(652, n, k);
  api::TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = catrsm::model::Algorithm::kIterative;

  api::Context ref_ctx(4);
  const api::ExecResult ref =
      ref_ctx.plan(api::trsm_op(n, k, spec))->execute(l, b);

  api::Context ctx(4);
  auto plan = ctx.plan(api::trsm_op(n, k, spec));
  (void)plan->execute(l, b);
  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 47});
  EXPECT_THROW((void)plan->execute(l, b), check::RankKilledError);
  ctx.machine().disarm_fault();

  const api::ExecResult again = plan->execute(l, b);
  EXPECT_TRUE(again.x.equals(ref.x));
  EXPECT_EQ(again.residual, ref.residual);
}

api::TrsmSpec recursive_spec() {
  api::TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = catrsm::model::Algorithm::kRecursive;
  return spec;
}

TEST(FaultApi, FaultedRecordingKeepsNoReplicaAndTheRetryRunsCold) {
  // A recursive solve that faults while recording its replica keeps
  // nothing; the retry after repair is the clean cold solve again.
  const index_t n = 128, k = 128;
  const Matrix l = catrsm::la::make_lower_triangular(661, n);
  const Matrix b = catrsm::la::make_rhs(662, n, k);

  api::Context ref_ctx(8);
  auto ref_plan = ref_ctx.plan(api::trsm_op(n, k, recursive_spec()));
  const api::DistExecResult ref = ref_plan->execute_dist(
      ref_ctx.upload(l, ref_plan->input_layout(0)),
      ref_ctx.upload(b, ref_plan->input_layout(1)));
  const Matrix x_ref = ref_ctx.download(ref.x);

  api::Context ctx(8);
  auto plan = ctx.plan(api::trsm_op(n, k, recursive_spec()));
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const api::DistHandle hb = ctx.upload(b, plan->input_layout(1));
  const std::size_t entries = ctx.machine().handle_store().count();
  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 49});
  EXPECT_THROW((void)plan->execute_dist(hl, hb), check::RankKilledError);
  ctx.machine().disarm_fault();
  EXPECT_EQ(ctx.machine().handle_store().count(), entries);

  ctx.repair(hl);
  ctx.repair(hb);
  const api::DistExecResult retry = plan->execute_dist(hl, hb);
  EXPECT_TRUE(ctx.download(retry.x).equals(x_ref));
  EXPECT_EQ(retry.algorithm_cost().msgs, ref.algorithm_cost().msgs);
  EXPECT_EQ(retry.algorithm_cost().words, ref.algorithm_cost().words);
  EXPECT_EQ(retry.stats.critical_time, ref.stats.critical_time);
  EXPECT_EQ(retry.stats.phase_max.count("replication"), 1u);
}

TEST(FaultApi, FaultedReplayPoisonsTheOperandAndTheNextSolveRecords) {
  const index_t n = 128, k = 128;
  const Matrix l = catrsm::la::make_lower_triangular(671, n);
  const Matrix b = catrsm::la::make_rhs(672, n, k);

  api::Context ctx(8);
  auto plan = ctx.plan(api::trsm_op(n, k, recursive_spec()));
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const api::DistHandle hb = ctx.upload(b, plan->input_layout(1));
  const api::DistExecResult cold = plan->execute_dist(hl, hb);
  const Matrix x = ctx.download(cold.x);

  ctx.machine().arm_fault(FaultPlan{FaultClass::kKillRank, 51});
  EXPECT_THROW((void)plan->execute_dist(hl, hb), check::RankKilledError);
  ctx.machine().disarm_fault();
  EXPECT_TRUE(hl.poisoned());

  ctx.repair(hl);
  ctx.repair(hb);
  const api::DistExecResult again = plan->execute_dist(hl, hb);
  EXPECT_TRUE(ctx.download(again.x).equals(x));
  EXPECT_EQ(again.algorithm_cost().words, cold.algorithm_cost().words);
  EXPECT_EQ(again.stats.phase_max.count("replication"), 1u);
  const api::DistExecResult warm = plan->execute_dist(hl, hb);
  EXPECT_EQ(warm.stats.phase_max.count("replication"), 0u);
  EXPECT_TRUE(ctx.download(warm.x).equals(x));
}

TEST(FaultApi, RepairWithoutASourceThrowsTyped) {
  const index_t n = 32, k = 8;
  const Matrix l = catrsm::la::make_lower_triangular(621, n);
  const Matrix b = catrsm::la::make_rhs(622, n, k);

  api::Context ctx(4);
  auto plan = ctx.plan(api::trsm_op(n, k));
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const api::DistHandle hb = ctx.upload(b, plan->input_layout(1));
  // A run-produced output has no recorded source to re-upload from.
  const api::DistHandle hx = plan->execute_dist(hl, hb).x;
  ctx.machine().handle_store().poison(hx.id());
  EXPECT_THROW(ctx.repair(hx), api::PoisonedOperandError);
  // But an explicit unpoison (the caller vouches) restores readability.
  ctx.machine().handle_store().unpoison(hx.id());
  (void)ctx.download(hx);
}

}  // namespace
