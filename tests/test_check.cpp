// The simulator correctness oracle (sim/check): deadlock detection
// under both scheduler backends, collective-matching
// validation, trace capture / deterministic replay, and validated
// environment-variable parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "sim/check/coll_matcher.hpp"
#include "sim/check/deadlock.hpp"
#include "sim/check/fault_report.hpp"
#include "sim/check/trace.hpp"
#include "sim/comm.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "support/env.hpp"

namespace {

using catrsm::Error;
using catrsm::sim::Buffer;
using catrsm::sim::Comm;
using catrsm::sim::Machine;
using catrsm::sim::Rank;
using catrsm::sim::RunStats;
using catrsm::sim::check::CollMismatchError;
using catrsm::sim::check::DeadlockError;
namespace coll = catrsm::coll;
namespace check = catrsm::sim::check;
namespace env = catrsm::env;

/// Set an environment variable for the current scope, restoring the
/// previous state (value or absence) on exit.
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

/// Run `fn` on `m` and return the DeadlockError dump it must fault with.
template <typename Fn>
std::string expect_deadlock(Machine& m, Fn fn) {
  try {
    m.run(fn);
  } catch (const DeadlockError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "faulted with the wrong exception type: " << e.what();
    return {};
  }
  ADD_FAILURE() << "run completed instead of faulting with DeadlockError";
  return {};
}

void ping_pong_works(Machine& m) {
  const RunStats stats = m.run([](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>{42.0}, 7);
    } else if (r.id() == 1) {
      const Buffer got = r.recv(0, 7);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 42.0);
    }
  });
  EXPECT_EQ(stats.per_rank[0].msgs, 1.0);
}

// ---------------------------------------------------------------------------
// Deadlock detection

void recv_cycle_body(Rank& r) {
  // Every rank waits for its right neighbor: a pure p-cycle, no message
  // ever in flight.
  (void)r.recv((r.id() + 1) % r.nprocs(), 5);
}

TEST(Deadlock, RecvCycleFaultsWithDiagnostics) {
  Machine m(4);
  const std::string dump = expect_deadlock(m, recv_cycle_body);
  EXPECT_NE(dump.find("simulated run deadlocked"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rank 0: blocked in recv from rank 1, tag 5"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("rank 3: blocked in recv from rank 0"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("0 -> 1 -> 2 -> 3 -> 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("starved"), std::string::npos) << dump;
}

TEST(Deadlock, WaitingOnFinishedRankFaults) {
  Machine m(2);
  const std::string dump = expect_deadlock(m, [](Rank& r) {
    if (r.id() == 1) (void)r.recv(0, 3);  // rank 0 exits without sending
  });
  EXPECT_NE(dump.find("rank 0: finished"), std::string::npos) << dump;
  EXPECT_NE(dump.find("sender already finished"), std::string::npos) << dump;
}

TEST(Deadlock, PendingMismatchedTagIsReported) {
  Machine m(2);
  const std::string dump = expect_deadlock(m, [](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>{1.0, 2.0}, 7);  // wrong tag: 1 wants 8
      (void)r.recv(1, 9);
    } else {
      (void)r.recv(0, 8);
    }
  });
  EXPECT_NE(dump.find("blocked in recv from rank 0, tag 8"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("pending (unmatched) mailbox contents"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("rank 1 <- rank 0, tag 7: 1 message, 2 words"),
            std::string::npos)
      << dump;
}

TEST(Deadlock, MachineStaysUsableAfterFault) {
  Machine m(2);
  (void)expect_deadlock(m, [](Rank& r) {
    if (r.id() == 0) (void)r.recv(1, 1);
    if (r.id() == 1) (void)r.recv(0, 1);
  });
  ping_pong_works(m);
  // And a second fault on the same machine is detected again.
  const std::string dump = expect_deadlock(m, recv_cycle_body);
  EXPECT_NE(dump.find("0 -> 1 -> 0"), std::string::npos) << dump;
  ping_pong_works(m);
}

void ring_shift_body(Rank& r) {
  const int p = r.nprocs();
  std::vector<double> v{static_cast<double>(r.id())};
  for (int round = 0; round < 200; ++round) {
    Buffer got = r.shift((r.id() + 1) % p, (r.id() + p - 1) % p, v, 11);
    v.assign(got.begin(), got.end());
  }
}

/// One p = 4 machine runs a two-rank receive cycle and a healthy ring
/// stream at once: the cycle must be declared, and the ring must neither
/// be declared nor cost anything more than it does alone.
void deadlock_beside_healthy_stream() {
  Machine m(4);
  const RunStats alone = m.run(ring_shift_body);
  auto stuck = m.run_async([](Rank& r) {
    if (r.id() < 2) (void)r.recv(1 - r.id(), 3);
  });
  auto healthy = m.run_async(ring_shift_body);
  try {
    (void)stuck.wait();
    ADD_FAILURE() << "the receive cycle completed";
  } catch (const DeadlockError& e) {
    const std::string dump = e.what();
    EXPECT_NE(dump.find("0 -> 1 -> 0"), std::string::npos) << dump;
  }
  const RunStats got = healthy.wait();
  ASSERT_EQ(got.per_rank.size(), alone.per_rank.size());
  for (std::size_t r = 0; r < got.per_rank.size(); ++r)
    EXPECT_EQ(got.per_rank[r].msgs, alone.per_rank[r].msgs) << "rank " << r;
  EXPECT_EQ(got.critical_time, alone.critical_time);
}

TEST(Deadlock, DeclaredBesideAHealthyStream) {
  deadlock_beside_healthy_stream();
}

TEST(Deadlock, DeclaredBesideAHealthyStreamOnOneWorker) {
  // Read when the machine's first run creates its scheduler: every fiber
  // of both runs interleaves on one worker.
  ScopedEnv one("CATRSM_SIM_WORKERS", "1");
  deadlock_beside_healthy_stream();
}

TEST(Deadlock, ThrownRankErrorStillWinsOverAbort) {
  // A rank that throws aborts the others mid-recv; the original error —
  // not a deadlock or a generic abort — must be what run() rethrows.
  Machine m(2);
  try {
    m.run([](Rank& r) {
      if (r.id() == 0) throw Error("rank 0 exploded");
      (void)r.recv(0, 1);
    });
    FAIL() << "run completed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exploded"), std::string::npos);
  }
  ping_pong_works(m);
}

// ---------------------------------------------------------------------------
// Collective matching

TEST(CollMatch, OperationSequenceMismatchFaults) {
  Machine m(4);
  m.set_collective_checking(true);
  try {
    m.run([](Rank& r) {
      Comm world = Comm::world(r);
      const coll::Counts counts(4, 4);
      if (r.id() == 0) {
        (void)coll::allgather(world, Buffer(std::vector<double>(4, 1.0)),
                              counts);
      } else {
        (void)coll::reduce_scatter(world,
                                   Buffer(std::vector<double>(16, 1.0)),
                                   counts);
      }
    });
    FAIL() << "run completed instead of faulting with CollMismatchError";
  } catch (const CollMismatchError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch on comm {0 1 2 3}"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("operation sequence disagrees"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("allgather"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reduce_scatter"), std::string::npos) << msg;
  }
  // The machine survives the fault for further (checked) runs.
  m.run([](Rank& r) {
    Comm world = Comm::world(r);
    (void)coll::allreduce(world, Buffer(std::vector<double>(4, 1.0)));
  });
}

TEST(CollMatch, CountsMismatchFaults) {
  Machine m(2);
  m.set_collective_checking(true);
  try {
    m.run([](Rank& r) {
      Comm world = Comm::world(r);
      // Rank 0 splits 8 words as [4 4], rank 1 as [2 6]: same op, same
      // total, different per-rank counts — exactly the bug class that
      // otherwise scrambles payload boundaries silently.
      const coll::Counts counts = r.id() == 0 ? coll::Counts{4, 4}
                                              : coll::Counts{2, 6};
      (void)coll::allgather(
          world,
          Buffer(std::vector<double>(counts[static_cast<std::size_t>(
                                         r.id())],
                                     1.0)),
          counts);
    });
    FAIL() << "run completed instead of faulting with CollMismatchError";
  } catch (const CollMismatchError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("per-rank counts disagree"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[4 4]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[2 6]"), std::string::npos) << msg;
  }
}

TEST(CollMatch, RootMismatchFaults) {
  Machine m(2);
  m.set_collective_checking(true);
  try {
    m.run([](Rank& r) {
      Comm world = Comm::world(r);
      const coll::Counts counts{2, 2};
      (void)coll::scatter(world, /*root=*/r.id(),
                          Buffer(std::vector<double>(4, 1.0)), counts);
    });
    FAIL() << "run completed instead of faulting with CollMismatchError";
  } catch (const CollMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("roots disagree"),
              std::string::npos)
        << e.what();
  }
}

void mismatched_members_body(Rank& r) {
  // Rank 2 believes the communicator is {0, 1, 2}; everyone else uses the
  // world {0, 1, 2, 3}. Distinct member lists get distinct epochs, so no
  // message ever cross-matches and the run stalls — the detector must
  // fault with both sides' collective contexts in the dump.
  if (r.id() == 2) {
    Comm wrong(r, {0, 1, 2});
    (void)coll::allgather_equal(wrong, Buffer(std::vector<double>(4, 1.0)));
  } else {
    Comm world = Comm::world(r);
    (void)coll::allgather_equal(world, Buffer(std::vector<double>(4, 1.0)));
  }
}

TEST(CollMatch, MismatchedMembersDeadlocksWithBothMemberLists) {
  Machine m(4);
  m.set_collective_checking(true);
  const std::string dump = expect_deadlock(m, mismatched_members_body);
  EXPECT_NE(dump.find("allgather #0 on comm {0 1 2 3}"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("allgather #0 on comm {0 1 2}"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("comm epoch"), std::string::npos) << dump;
}

TEST(CollMatch, MatchedCollectivesAddNoModeledCost) {
  // The oracle observes, never participates: identical runs with
  // checking off and on must produce byte-identical modeled S/W/F and
  // virtual times.
  const auto body = [](Rank& r) {
    Comm world = Comm::world(r);
    Buffer sum = coll::allreduce(world, Buffer(std::vector<double>(8, 1.0)));
    (void)coll::bcast(world, 0, r.id() == 0 ? std::move(sum) : Buffer(), 8);
    coll::barrier(world);
  };
  Machine plain(4);
  const RunStats off = plain.run(body);
  Machine checked(4);
  checked.set_collective_checking(true);
  const RunStats on = checked.run(body);
  ASSERT_EQ(off.per_rank.size(), on.per_rank.size());
  for (std::size_t i = 0; i < off.per_rank.size(); ++i) {
    EXPECT_EQ(off.per_rank[i].msgs, on.per_rank[i].msgs);
    EXPECT_EQ(off.per_rank[i].words, on.per_rank[i].words);
    EXPECT_EQ(off.per_rank[i].flops, on.per_rank[i].flops);
  }
  EXPECT_EQ(off.critical_time, on.critical_time);
}

// ---------------------------------------------------------------------------
// Trace capture and replay

void traced_body(Rank& r) {
  Comm world = Comm::world(r);
  std::vector<double> mine(4, static_cast<double>(r.id() + 1));
  Buffer sum = coll::allreduce(world, Buffer(std::move(mine)));
  (void)sum;
  r.charge_flops(100.0 * (r.id() + 1));
  if (r.id() == 0) r.send(3, std::vector<double>{3.5, 4.5}, 11);
  if (r.id() == 3) (void)r.recv(0, 11);
}

TEST(Trace, CaptureThenReplayIsBitIdentical) {
  Machine m(4);
  m.set_tracing(true, /*capture_payloads=*/true);
  const RunStats live = m.run(traced_body);
  check::Trace trace = m.take_trace();
  m.set_tracing(false);

  ASSERT_EQ(trace.p, 4);
  ASSERT_TRUE(trace.payloads);
  // replay() itself faults on any payload, S/W/F, or clock divergence.
  const RunStats replayed = check::replay(m, trace);
  EXPECT_EQ(replayed.critical_time, live.critical_time);
  for (std::size_t i = 0; i < live.per_rank.size(); ++i) {
    EXPECT_EQ(replayed.per_rank[i].msgs, live.per_rank[i].msgs);
    EXPECT_EQ(replayed.per_rank[i].words, live.per_rank[i].words);
    EXPECT_EQ(replayed.per_rank[i].flops, live.per_rank[i].flops);
  }
}

TEST(Trace, SaveLoadRoundTripsExactly) {
  Machine m(4);
  m.set_tracing(true, /*capture_payloads=*/true);
  (void)m.run(traced_body);
  const check::Trace trace = m.take_trace();
  m.set_tracing(false);

  const std::string path =
      testing::TempDir() + "catrsm_trace_roundtrip.ctrc";
  trace.save(path);
  const check::Trace loaded = check::Trace::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(check::diff(trace, loaded), "");
  // The loaded trace is itself replayable.
  (void)check::replay(m, loaded);
}

TEST(Trace, TamperedPayloadFaultsOnReplay) {
  Machine m(2);
  m.set_tracing(true, /*capture_payloads=*/true);
  (void)m.run([](Rank& r) {
    if (r.id() == 0) r.send(1, std::vector<double>{1.0, 2.0, 3.0}, 4);
    if (r.id() == 1) (void)r.recv(0, 4);
  });
  check::Trace trace = m.take_trace();
  m.set_tracing(false);

  bool tampered = false;
  for (auto& stream : trace.events) {
    for (auto& ev : stream) {
      if (ev.kind == check::EventKind::kSend && !ev.payload.empty()) {
        ev.payload[0] += 1.0;  // recorded hashes now disagree
        tampered = true;
        break;
      }
    }
    if (tampered) break;
  }
  ASSERT_TRUE(tampered);
  try {
    (void)check::replay(m, trace);
    FAIL() << "replay accepted a tampered trace";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("payload bytes differ"),
              std::string::npos)
        << e.what();
  }
}

TEST(Trace, DiffPinpointsFirstDivergence) {
  Machine m(2);
  m.set_tracing(true, /*capture_payloads=*/true);
  (void)m.run([](Rank& r) {
    if (r.id() == 0) r.send(1, std::vector<double>{1.0}, 4);
    if (r.id() == 1) (void)r.recv(0, 4);
  });
  check::Trace a = m.take_trace();
  m.set_tracing(false);
  check::Trace b = a;
  EXPECT_EQ(check::diff(a, b), "");
  b.events[1][0].hash ^= 1;
  const std::string d = check::diff(a, b);
  EXPECT_NE(d.find("rank 1"), std::string::npos) << d;
  EXPECT_NE(d.find("event 0"), std::string::npos) << d;
}

TEST(Trace, TracingAddsNoModeledCost) {
  Machine plain(4);
  const RunStats off = plain.run(traced_body);
  Machine traced(4);
  traced.set_tracing(true, /*capture_payloads=*/true);
  const RunStats on = traced.run(traced_body);
  EXPECT_EQ(off.critical_time, on.critical_time);
  for (std::size_t i = 0; i < off.per_rank.size(); ++i) {
    EXPECT_EQ(off.per_rank[i].msgs, on.per_rank[i].msgs);
    EXPECT_EQ(off.per_rank[i].words, on.per_rank[i].words);
    EXPECT_EQ(off.per_rank[i].flops, on.per_rank[i].flops);
  }
}

TEST(Trace, MachineReusableAfterFaultWithMatcherAndTracingOn) {
  // The hardest reuse case: a run faults with BOTH oracles armed. The
  // torso trace must be refused (not silently replayed), and the next
  // run on the same machine must trace, match, and replay cleanly.
  using catrsm::sim::FaultClass;
  using catrsm::sim::FaultPlan;
  Machine m(4);
  m.set_collective_checking(true);
  m.set_tracing(true, /*capture_payloads=*/true);

  m.arm_fault(FaultPlan{FaultClass::kCorrupt, 13, /*rate=*/1});
  try {
    m.run(traced_body);
    FAIL() << "run completed under a rate-1 corruption fault";
  } catch (const std::exception& e) {
    const auto report = check::report_fault(m, e);
    EXPECT_EQ(report.detector, "payload-checksum") << report.to_string();
  }
  // The faulted run never finished: its trace is a torso, and handing it
  // out for replay would "validate" a run that did not happen.
  EXPECT_THROW((void)m.take_trace(), Error);
  m.disarm_fault();

  // Same machine, same oracles: a clean run records a complete,
  // replayable trace...
  const RunStats live = m.run(traced_body);
  check::Trace trace = m.take_trace();
  const RunStats replayed = check::replay(m, trace);
  EXPECT_EQ(replayed.critical_time, live.critical_time);

  // ...and the collective matcher still catches a real mismatch.
  m.set_tracing(false);
  try {
    m.run([](Rank& r) {
      Comm world = Comm::world(r);
      if (r.id() == 0) {
        (void)coll::allreduce(world, Buffer(std::vector<double>(4, 1.0)));
      } else {
        coll::barrier(world);
      }
    });
    FAIL() << "matcher missed an operation mismatch after fault recovery";
  } catch (const CollMismatchError&) {
  }
}

// ---------------------------------------------------------------------------
// Validated environment parsing

TEST(EnvParse, IntOrAcceptsWellFormedValues) {
  ScopedEnv v("CATRSM_TEST_KNOB", "8");
  EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 8);
}

TEST(EnvParse, IntOrFallsBackOnGarbage) {
  ScopedEnv v("CATRSM_TEST_KNOB", "banana");
  EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 3);
}

TEST(EnvParse, IntOrFallsBackOnTrailingGarbage) {
  ScopedEnv v("CATRSM_TEST_KNOB", "8threads");
  EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 3);
}

TEST(EnvParse, IntOrEnforcesRange) {
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "0");
    EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 3);
  }
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "-4");
    EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 3);
  }
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "101");
    EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 3, 1, 100), 3);
  }
}

TEST(EnvParse, IntOrUnsetIsSilentFallback) {
  unsetenv("CATRSM_TEST_KNOB");
  EXPECT_EQ(env::int_or("CATRSM_TEST_KNOB", 5, 1, 100), 5);
}

TEST(EnvParse, FlagOrParsesIntegersAndRejectsWords) {
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "0");
    EXPECT_FALSE(env::flag_or("CATRSM_TEST_KNOB", true));
  }
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "1");
    EXPECT_TRUE(env::flag_or("CATRSM_TEST_KNOB", false));
  }
  {
    ScopedEnv v("CATRSM_TEST_KNOB", "yes");
    EXPECT_TRUE(env::flag_or("CATRSM_TEST_KNOB", true));
    EXPECT_FALSE(env::flag_or("CATRSM_TEST_KNOB", false));
  }
}

TEST(EnvParse, SimWorkersGarbageStillRuns) {
  // End to end: a malformed worker-count override must warn and run on
  // the default pool, not crash or hang the scheduler.
  ScopedEnv v("CATRSM_SIM_WORKERS", "lots");
  Machine m(4);
  ping_pong_works(m);
}

}  // namespace
