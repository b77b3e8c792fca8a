// Tests for the simulated machine: point-to-point semantics, cost counter
// accounting, virtual-clock critical path, and failure propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/generate.hpp"
#include "la/gemm.hpp"
#include "la/kernel/pool.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"

namespace catrsm::sim {
namespace {

/// A machine whose scheduler runs `workers` threads. CATRSM_SIM_WORKERS is
/// read when the machine creates its scheduler and is restored right
/// after, so a failing check cannot leak it into later tests.
std::unique_ptr<Machine> machine_with_workers(int p, int workers) {
  const char* old = std::getenv("CATRSM_SIM_WORKERS");
  const std::string saved = old != nullptr ? old : "";
  setenv("CATRSM_SIM_WORKERS", std::to_string(workers).c_str(), 1);
  auto m = std::make_unique<Machine>(p);
  m->scheduler();
  if (old != nullptr) {
    setenv("CATRSM_SIM_WORKERS", saved.c_str(), 1);
  } else {
    unsetenv("CATRSM_SIM_WORKERS");
  }
  return m;
}

TEST(Machine, PingPongDeliversDataAndCharges) {
  Machine m(2);
  RunStats stats = m.run([](Rank& r) {
    if (r.id() == 0) {
      std::vector<double> payload{1.0, 2.0, 3.0};
      r.send(1, payload, 7);
      auto back = r.recv(1, 8);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 6.0);
    } else {
      auto got = r.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      std::vector<double> reply{got[0] + got[1] + got[2]};
      r.send(0, reply, 8);
    }
  });
  // Each rank sent one message and received one.
  EXPECT_DOUBLE_EQ(stats.per_rank[0].msgs, 2.0);
  EXPECT_DOUBLE_EQ(stats.per_rank[1].msgs, 2.0);
  EXPECT_DOUBLE_EQ(stats.per_rank[0].words, 4.0);  // 3 sent + 1 received
  EXPECT_DOUBLE_EQ(stats.per_rank[1].words, 4.0);
}

TEST(Machine, VirtualClockTracksLatencyChain) {
  MachineParams mp;
  mp.alpha = 1.0;
  mp.beta = 0.0;
  mp.gamma = 0.0;
  Machine m(4, mp);
  // A relay 0 -> 1 -> 2 -> 3: three hops, critical path 3 alpha.
  RunStats stats = m.run([](Rank& r) {
    std::vector<double> token{42.0};
    if (r.id() == 0) {
      r.send(1, token, 1);
    } else {
      auto t = r.recv(r.id() - 1, 1);
      if (r.id() < 3) r.send(r.id() + 1, t, 1);
    }
  });
  EXPECT_DOUBLE_EQ(stats.critical_time, 3.0);
}

TEST(Machine, VirtualClockIncludesBandwidthAndFlops) {
  MachineParams mp;
  mp.alpha = 1.0;
  mp.beta = 0.5;
  mp.gamma = 0.25;
  Machine m(2, mp);
  RunStats stats = m.run([](Rank& r) {
    if (r.id() == 0) {
      r.charge_flops(8.0);  // t = 2.0
      std::vector<double> data(4, 1.0);
      r.send(1, data, 1);  // t = 2 + 1 + 2 = 5
    } else {
      auto d = r.recv(0, 1);  // arrives at max(0, 2) + 1 + 2 = 5
      (void)d;
      r.charge_flops(4.0);  // t = 6
    }
  });
  EXPECT_DOUBLE_EQ(stats.critical_time, 6.0);
}

TEST(Machine, SendrecvChargesOneRoundBothSides) {
  Machine m(2);
  RunStats stats = m.run([](Rank& r) {
    std::vector<double> mine(10, static_cast<double>(r.id()));
    auto got = r.sendrecv(1 - r.id(), mine, 3);
    ASSERT_EQ(got.size(), 10u);
    EXPECT_DOUBLE_EQ(got[0], static_cast<double>(1 - r.id()));
  });
  for (const auto& c : stats.per_rank) {
    EXPECT_DOUBLE_EQ(c.msgs, 1.0);
    EXPECT_DOUBLE_EQ(c.words, 10.0);
  }
}

TEST(Machine, ShiftExchangesOnARing) {
  const int p = 5;
  Machine m(p);
  m.run([p](Rank& r) {
    std::vector<double> mine{static_cast<double>(r.id())};
    auto got = r.shift((r.id() + 1) % p, (r.id() + p - 1) % p, mine, 4);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_DOUBLE_EQ(got[0], static_cast<double>((r.id() + p - 1) % p));
  });
}

TEST(Machine, MessagesMatchByTagIndependently) {
  Machine m(2);
  m.run([](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>{1.0}, 10);
      r.send(1, std::vector<double>{2.0}, 20);
    } else {
      // Receive in the opposite order of sending: tags must disambiguate.
      auto b = r.recv(0, 20);
      auto a = r.recv(0, 10);
      EXPECT_DOUBLE_EQ(a[0], 1.0);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
    }
  });
}

TEST(Machine, FifoOrderWithinSameTag) {
  Machine m(2);
  m.run([](Rank& r) {
    if (r.id() == 0) {
      for (int i = 0; i < 5; ++i)
        r.send(1, std::vector<double>{static_cast<double>(i)}, 1);
    } else {
      for (int i = 0; i < 5; ++i) {
        auto v = r.recv(0, 1);
        EXPECT_DOUBLE_EQ(v[0], static_cast<double>(i));
      }
    }
  });
}

TEST(Machine, MessagesMatchBySenderAndTag) {
  // Three senders share one receiver and two tags; the receiver takes
  // them in an order unrelated to arrival. Each (sender, tag) pair must
  // match exactly and stay FIFO.
  Machine m(4);
  m.run([](Rank& r) {
    if (r.id() != 0) {
      const double base = 10.0 * r.id();
      r.send(0, std::vector<double>{base + 0.0}, 7);
      r.send(0, std::vector<double>{base + 1.0}, 7);
      r.send(0, std::vector<double>{base + 9.0}, 8);
      r.send(0, std::vector<double>{base + 2.0}, 7);
      return;
    }
    for (int src = 3; src >= 1; --src) {
      const Buffer got = r.recv(src, 8);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 10.0 * src + 9.0) << "tag 8 from " << src;
    }
    for (int src = 3; src >= 1; --src) {
      for (int i = 0; i < 3; ++i) {
        const Buffer got = r.recv(src, 7);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], 10.0 * src + i) << "tag 7 from " << src;
      }
    }
  });
}

TEST(Machine, AFailedRunLeavesNoMessageForTheNextRun) {
  Machine m(2);
  EXPECT_THROW(m.run([](Rank& r) {
                 if (r.id() == 0) {
                   r.send(1, std::vector<double>{1.0}, 5);
                   r.send(1, std::vector<double>{0.0}, 6);
                 } else {
                   // Tag 6 arrives after tag 5, so {1.0} is queued when
                   // this rank fails without receiving it.
                   (void)r.recv(0, 6);
                   throw Error("injected failure");
                 }
               }),
               Error);
  m.run([](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>{2.0}, 5);
    } else {
      const Buffer got = r.recv(0, 5);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 2.0);
    }
  });
}

TEST(Machine, RankFailurePropagatesWithoutHanging) {
  Machine m(4);
  EXPECT_THROW(m.run([](Rank& r) {
                 if (r.id() == 2) throw Error("injected failure");
                 if (r.id() == 0) (void)r.recv(3, 1);  // would block forever
                 if (r.id() == 3) (void)r.recv(0, 1);
               }),
               Error);
  // The machine must be reusable after a failed run.
  RunStats stats = m.run([](Rank& r) { r.charge_flops(1.0); });
  EXPECT_DOUBLE_EQ(stats.per_rank[0].flops, 1.0);
}

TEST(Machine, SelfSendIsRejected) {
  Machine m(2);
  EXPECT_THROW(m.run([](Rank& r) {
                 r.send(r.id(), std::vector<double>{1.0}, 1);
               }),
               Error);
}

TEST(Machine, CountersResetBetweenRuns) {
  Machine m(2);
  auto job = [](Rank& r) {
    if (r.id() == 0) {
      r.send(1, std::vector<double>(5, 0.0), 1);
    } else {
      (void)r.recv(0, 1);
    }
  };
  RunStats s1 = m.run(job);
  RunStats s2 = m.run(job);
  EXPECT_DOUBLE_EQ(s1.max_words(), s2.max_words());
  EXPECT_DOUBLE_EQ(s1.critical_time, s2.critical_time);
}

TEST(Cost, ArithmeticAndTime) {
  Cost a{1, 10, 100};
  Cost b{2, 20, 200};
  Cost c = a + b;
  EXPECT_DOUBLE_EQ(c.msgs, 3.0);
  EXPECT_DOUBLE_EQ(c.words, 30.0);
  EXPECT_DOUBLE_EQ(c.flops, 300.0);
  MachineParams mp{1.0, 0.1, 0.01};
  EXPECT_DOUBLE_EQ(c.time(mp), 3.0 + 3.0 + 3.0);
}

TEST(Comm, SubsetTranslationAndFibers) {
  Machine m(6);
  m.run([](Rank& r) {
    Comm world = Comm::world(r);
    EXPECT_EQ(world.size(), 6);
    EXPECT_EQ(world.rank(), r.id());
    EXPECT_EQ(world.index_of_world(r.id()), r.id());

    Comm fiber = world.strided_fiber(2);
    EXPECT_EQ(fiber.size(), 3);
    EXPECT_EQ(fiber.world_rank(fiber.rank()), r.id());

    Comm rng = world.range(r.id() < 3 ? 0 : 3, 3);
    EXPECT_EQ(rng.size(), 3);
  });
}

TEST(Comm, OneMemberListGetsOneEpochAcrossWorkers) {
  // Every rank runs on its own worker thread and answers repeat lookups
  // from that thread's cache of the registry. Each rank registers the
  // lists in its own order, so first lookups race; every rank must still
  // see one sequential id per list, and the next run (all cache hits) the
  // same ids.
  const int p = 4;
  auto m = machine_with_workers(p, p);
  ASSERT_EQ(m->scheduler().workers(), p);
  const std::vector<std::vector<int>> lists{
      {0, 1, 2, 3}, {0, 1}, {2, 3}, {0, 2}, {1, 3}, {3, 2, 1, 0}};
  std::vector<std::thread::id> threads(p);
  auto epochs_of_run = [&] {
    std::vector<std::vector<std::uint64_t>> epochs(p);
    m->run([&](Rank& r) {
      const auto me = static_cast<std::size_t>(r.id());
      threads[me] = std::this_thread::get_id();
      epochs[me].resize(lists.size());
      for (std::size_t s = 0; s < lists.size(); ++s) {
        const std::size_t i = (s + me) % lists.size();
        epochs[me][i] = Comm(r, lists[i]).epoch();
      }
    });
    return epochs;
  };
  const auto first = epochs_of_run();
  const auto second = epochs_of_run();
  EXPECT_EQ(std::set<std::thread::id>(threads.begin(), threads.end()).size(),
            static_cast<std::size_t>(p));
  const std::set<std::uint64_t> ids(first[0].begin(), first[0].end());
  EXPECT_EQ(ids.size(), lists.size());
  EXPECT_EQ(*ids.rbegin(), lists.size() - 1);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)], first[0]) << "rank " << r;
    EXPECT_EQ(second[static_cast<std::size_t>(r)], first[0]) << "rank " << r;
  }
}

TEST(Comm, NewMachineStartsFromAFreshEpochRegistry) {
  // Threads cache the registry's ids keyed on the machine, never on its
  // address: a machine built by the same thread in the storage of a
  // destroyed one numbers its groups from 0, in its own order.
  const std::vector<std::vector<int>> lists{{0}, {1}, {0, 1}};
  std::optional<Machine> m;
  auto register_in = [&](const std::vector<std::size_t>& order) {
    std::vector<std::uint64_t> ids(lists.size());
    m->run([&](Rank& r) {
      if (r.id() != 0) return;
      for (const std::size_t i : order) ids[i] = Comm(r, lists[i]).epoch();
    });
    return ids;
  };
  m.emplace(2);
  const Machine* first = &*m;
  EXPECT_EQ(register_in({0, 1, 2}), (std::vector<std::uint64_t>{0, 1, 2}));
  m.reset();
  m.emplace(2);
  ASSERT_EQ(&*m, first);
  EXPECT_EQ(register_in({2, 1, 0}), (std::vector<std::uint64_t>{2, 1, 0}));
}

TEST(Comm, NonMembersMayDescribeButNotCommunicate) {
  Machine m(4);
  m.run([](Rank& r) {
    // Every rank builds a comm excluding itself: allowed (layouts over
    // other ranks must be describable), but rank() and traffic throw.
    std::vector<int> members{(r.id() + 1) % 4};
    Comm c(r, members);
    EXPECT_FALSE(c.is_member());
    EXPECT_EQ(c.size(), 1);
    EXPECT_THROW((void)c.rank(), Error);
  });
}

TEST(Scheduler, WorkersPersistAcrossRuns) {
  const int p = 4;
  Machine m(p);
  auto capture = [&] {
    std::vector<std::thread::id> ids(static_cast<std::size_t>(p));
    m.run([&](Rank& r) {
      ids[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
    });
    return ids;
  };
  const auto first = capture();
  const auto second = capture();
  // Rank i always runs on worker i % W, so the id vectors — not just the
  // id sets — must coincide: the pool is reused, never respawned.
  EXPECT_EQ(first, second);
  EXPECT_EQ(m.scheduler().size(), p);
  EXPECT_EQ(m.scheduler().runs(), 2u);
}

TEST(Scheduler, RanksShareWorkersModuloTheWorkerCount) {
  // With W = 2 < p = 4, rank i runs on worker i % 2.
  auto machine = machine_with_workers(4, 2);
  Machine& m = *machine;
  EXPECT_EQ(m.scheduler().workers(), 2);
  std::vector<std::thread::id> ids(4);
  m.run([&](Rank& r) {
    ids[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
  });
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_EQ(ids[1], ids[3]);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(Scheduler, WorkersPersistAcrossFailedRuns) {
  Machine m(2);
  std::vector<std::thread::id> before(2), after(2);
  m.run([&](Rank& r) {
    before[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
  });
  EXPECT_THROW(m.run([](Rank&) { throw Error("boom"); }), Error);
  m.run([&](Rank& r) {
    after[static_cast<std::size_t>(r.id())] = std::this_thread::get_id();
  });
  EXPECT_EQ(before, after);
}

TEST(Scheduler, ParkConsumesAnEarlyWakeAndResumesOnAPeerWake) {
  // The transport's one blocking primitive. Rank 0 first wakes itself and
  // then parks: that wake came before the park, so park() must return
  // without blocking (no peer knows rank 0's token yet, so a blocking
  // park would hang here). Rank 0 then publishes its token and parks
  // until rank 1 wakes it. Rank 1 waits for that token by parking too, so
  // the rendezvous never spins and works whether the two ranks share a
  // worker or not.
  RankScheduler sched(2);
  std::mutex mu;
  void* tokens[2] = {nullptr, nullptr};
  bool go = false;
  int rank0_parks = 0;
  const auto go_set = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return go;
  };
  sched.run([&](int i) {
    void* const self = RankScheduler::current_rank();
    EXPECT_NE(self, nullptr);
    if (i == 0) {
      RankScheduler::wake(self);
      RankScheduler::park();  // consumes the early wake
      void* peer = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        tokens[0] = self;
        peer = tokens[1];
      }
      if (peer != nullptr) RankScheduler::wake(peer);
      do {
        RankScheduler::park();
        ++rank0_parks;
      } while (!go_set());
    } else {
      void* peer = nullptr;
      while (true) {
        {
          std::lock_guard<std::mutex> lock(mu);
          tokens[1] = self;
          peer = tokens[0];
        }
        if (peer != nullptr) break;
        RankScheduler::park();
      }
      // Give rank 0 time to block for real before waking it.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      {
        std::lock_guard<std::mutex> lock(mu);
        go = true;
      }
      RankScheduler::wake(peer);
    }
  });
  // A park that returned without a wake would have spun through this
  // loop many times during rank 1's sleep; one wake allows at most one
  // spurious return on top of the real one.
  EXPECT_LE(rank0_parks, 2);
  EXPECT_EQ(RankScheduler::current_rank(), nullptr);
}

TEST(Scheduler, StallIsReportedWhenEveryUnfinishedTaskParks) {
  // Tasks 0 and 1 park with nobody to wake them while task 2 returns:
  // whichever of those events comes last stalls the submission. The
  // handler releases both sleepers; the first of them to return while
  // the other is still parked stalls it again, and the handler must
  // ignore that repeat for the submission to complete.
  RankScheduler sched(3);
  std::mutex mu;
  void* tokens[2] = {nullptr, nullptr};
  bool released = false;
  int reports = 0;
  const auto is_released = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return released;
  };
  auto sub = sched.submit(
      [&](int i) {
        if (i == 2) return;
        {
          std::lock_guard<std::mutex> lock(mu);
          tokens[i] = RankScheduler::current_rank();
        }
        while (!is_released()) RankScheduler::park();
      },
      nullptr,
      [&] {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++reports;
          if (released) return;
          released = true;
        }
        for (void* t : tokens) RankScheduler::wake(t);
      });
  sched.wait(sub);
  EXPECT_TRUE(released);
  EXPECT_GE(reports, 1);
  EXPECT_LE(reports, 2);
}

TEST(Scheduler, ReturnBesideAParkedTaskReportsOnceInsideATask) {
  // Task 0 parks until released; task 1 returns once task 0 has
  // published its token (and, after a pause, most likely parked). The
  // report runs exactly once and inside a task: either task 1's return
  // or task 0's park, never the completion that follows them.
  RankScheduler sched(2);
  std::mutex mu;
  void* tokens[2] = {nullptr, nullptr};
  bool released = false;
  int reports = 0;
  void* reporter = nullptr;
  const auto is_released = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return released;
  };
  auto sub = sched.submit(
      [&](int i) {
        void* const self = RankScheduler::current_rank();
        if (i == 0) {
          void* peer = nullptr;
          {
            std::lock_guard<std::mutex> lock(mu);
            tokens[0] = self;
            peer = tokens[1];
          }
          if (peer != nullptr) RankScheduler::wake(peer);
          while (!is_released()) RankScheduler::park();
          return;
        }
        while (true) {
          {
            std::lock_guard<std::mutex> lock(mu);
            tokens[1] = self;
            if (tokens[0] != nullptr) break;
          }
          RankScheduler::park();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      },
      nullptr,
      [&] {
        void* peer = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu);
          ++reports;
          reporter = RankScheduler::current_rank();
          released = true;
          peer = tokens[0];
        }
        RankScheduler::wake(peer);
      });
  sched.wait(sub);
  EXPECT_EQ(reports, 1);
  EXPECT_NE(reporter, nullptr);
}

TEST(Scheduler, PingPongNeverReportsAStall) {
  // Two tasks take 2000 turns: each parks until it holds the turn, and
  // the task passing the turn wakes the other before it parks itself, so
  // one of them is always running or woken.
  RankScheduler sched(2);
  constexpr int kMoves = 2000;
  std::mutex mu;
  void* tokens[2] = {nullptr, nullptr};
  int turn = 0;
  int moves = 0;
  std::atomic<int> reports{0};
  auto sub = sched.submit(
      [&](int i) {
        void* const self = RankScheduler::current_rank();
        for (int m = i; m < kMoves; m += 2) {
          while (true) {
            {
              std::lock_guard<std::mutex> lock(mu);
              tokens[i] = self;
              if (turn == i) break;
            }
            RankScheduler::park();
          }
          void* peer = nullptr;
          {
            std::lock_guard<std::mutex> lock(mu);
            ++moves;
            if (m + 1 == kMoves) break;
            turn = 1 - i;
            peer = tokens[1 - i];
          }
          if (peer != nullptr) RankScheduler::wake(peer);
        }
      },
      nullptr, [&] { reports.fetch_add(1); });
  sched.wait(sub);
  EXPECT_EQ(moves, kMoves);
  EXPECT_EQ(reports.load(), 0);
}

TEST(Machine, RankContextKernelCallsDoNotSpawnPoolWorkers) {
  // A la:: call big enough to fan out over the kernel pool from a direct
  // caller must stay single-threaded inside a simulated rank: the
  // scheduler already multiplexes p ranks over the cores, and the
  // sim-context TLS flag tells the pool to run inline.
  la::kernel::ThreadPool::set_threads_for_testing(4);
  const la::index_t n = 544;  // 2n^3 is past the pool's fan-out threshold
  const la::Matrix a = la::make_dense(1201, n, n);
  const la::Matrix b = la::make_dense(1202, n, n);

  // Sanity: the same product from a direct caller does fan out.
  const auto direct_before = la::kernel::ThreadPool::dispatches();
  const la::Matrix reference = la::matmul(a, b);
  ASSERT_GT(la::kernel::ThreadPool::dispatches(), direct_before);

  const auto rank_before = la::kernel::ThreadPool::dispatches();
  Machine m(2);
  m.run([&](Rank& r) {
    const la::Matrix c = la::matmul(a, b);
    ASSERT_TRUE(c.equals(reference)) << "rank " << r.id();
  });
  EXPECT_EQ(la::kernel::ThreadPool::dispatches(), rank_before)
      << "a simulated rank fanned out over the kernel pool";
  la::kernel::ThreadPool::set_threads_for_testing(0);
}

TEST(Machine, DeterministicAcrossRuns) {
  Machine m(8);
  auto job = [](Rank& r) {
    Comm world = Comm::world(r);
    std::vector<double> v{static_cast<double>(r.id()) * 1.5};
    for (int i = 0; i < 3; ++i) {
      v = r.sendrecv(r.id() ^ 1, std::move(v), 9).to_vector();
      v[0] += 0.25;
    }
  };
  RunStats s1 = m.run(job);
  RunStats s2 = m.run(job);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(s1.per_rank[i].msgs, s2.per_rank[i].msgs);
    EXPECT_DOUBLE_EQ(s1.per_rank[i].words, s2.per_rank[i].words);
  }
}

}  // namespace
}  // namespace catrsm::sim
