// Collective correctness and — crucially — cost-signature tests: the
// measured S and W of every collective must match the paper's Section
// II-C1 table, because every downstream TRSM cost claim builds on them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <numeric>

#include "coll/alltoall.hpp"
#include "coll/collectives.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace catrsm::coll {
namespace {

using sim::Comm;
using sim::Machine;
using sim::Rank;
using sim::RunStats;

// All group sizes exercised: powers of two and awkward sizes.
class CollectiveGroup : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveGroup,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST_P(CollectiveGroup, AllgatherConcatenatesInRankOrder) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    // Rank i contributes i+1 values, all equal to i.
    Counts counts(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) counts[i] = static_cast<std::size_t>(i + 1);
    Buf mine(static_cast<std::size_t>(r.id() + 1),
             static_cast<double>(r.id()));
    Buffer all = allgather(world, std::move(mine), counts);
    std::size_t pos = 0;
    for (int i = 0; i < p; ++i)
      for (int c = 0; c <= i; ++c)
        ASSERT_DOUBLE_EQ(all[pos++], static_cast<double>(i));
    ASSERT_EQ(pos, all.size());
  });
}

TEST_P(CollectiveGroup, AllgatherCostMatchesPaperFormula) {
  const int p = GetParam();
  if (p == 1) return;
  const std::size_t each = 24;
  Machine m(p);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Buf mine(each, 1.0);
    (void)allgather_equal(world, mine);
  });
  // S = ceil(log2 p) rounds exactly; W = n - n/p received words
  // (n = total gathered size), counted once per round as max(sent, recv).
  const double total = static_cast<double>(each * p);
  EXPECT_DOUBLE_EQ(stats.max_msgs(), ilog2_ceil(p));
  if (is_pow2(p)) {
    EXPECT_DOUBLE_EQ(stats.max_words(), total - each);
  } else {
    EXPECT_LE(stats.max_words(), total);  // Bruck may be mildly asymmetric
    EXPECT_GE(stats.max_words(), total - each - 1);
  }
}

TEST_P(CollectiveGroup, ReduceScatterSumsAndSplits) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    Counts counts(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int i = 0; i < p; ++i) {
      counts[i] = static_cast<std::size_t>(2 * i + 1);
      total += counts[i];
    }
    // Rank r contributes full[j] = r + j; segment sums are p*j + p(p-1)/2.
    Buf full(total);
    for (std::size_t j = 0; j < total; ++j)
      full[j] = static_cast<double>(r.id()) + static_cast<double>(j);
    Buffer seg = reduce_scatter(world, std::move(full), counts);
    ASSERT_EQ(seg.size(), counts[static_cast<std::size_t>(r.id())]);
    std::size_t off = 0;
    for (int i = 0; i < r.id(); ++i) off += counts[i];
    const double rank_sum = static_cast<double>(p) * (p - 1) / 2.0;
    for (std::size_t c = 0; c < seg.size(); ++c) {
      const double expect =
          static_cast<double>(p) * static_cast<double>(off + c) + rank_sum;
      ASSERT_DOUBLE_EQ(seg[c], expect);
    }
  });
}

TEST_P(CollectiveGroup, ReduceScatterCostPow2Exact) {
  const int p = GetParam();
  if (!is_pow2(p) || p == 1) return;
  const std::size_t each = 16;
  Machine m(p);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Buf full(each * static_cast<std::size_t>(p), 1.0);
    (void)reduce_scatter(world, full,
                         Counts(static_cast<std::size_t>(p), each));
  });
  const double total = static_cast<double>(each * p);
  EXPECT_DOUBLE_EQ(stats.max_msgs(), ilog2_exact(p));
  EXPECT_DOUBLE_EQ(stats.max_words(), total - each);
  EXPECT_DOUBLE_EQ(stats.max_flops(), total - each);
}

TEST_P(CollectiveGroup, ScatterDistributesBlocks) {
  const int p = GetParam();
  Machine m(p);
  for (int root = 0; root < p; root += std::max(1, p / 3)) {
    m.run([p, root](Rank& r) {
      Comm world = Comm::world(r);
      Counts counts(static_cast<std::size_t>(p));
      std::size_t total = 0;
      for (int i = 0; i < p; ++i) {
        counts[i] = static_cast<std::size_t>((i % 3) + 1);
        total += counts[i];
      }
      Buf all;
      if (r.id() == root) {
        for (int i = 0; i < p; ++i)
          for (std::size_t c = 0; c < counts[i]; ++c)
            all.push_back(static_cast<double>(i * 100 + static_cast<int>(c)));
      }
      Buffer mine = scatter(world, root, std::move(all), counts);
      ASSERT_EQ(mine.size(), counts[static_cast<std::size_t>(r.id())]);
      for (std::size_t c = 0; c < mine.size(); ++c)
        ASSERT_DOUBLE_EQ(mine[c],
                         static_cast<double>(r.id() * 100 +
                                             static_cast<int>(c)));
    });
  }
}

TEST_P(CollectiveGroup, GatherInvertsScatter) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    const int root = p - 1;
    Counts counts(static_cast<std::size_t>(p), 3);
    Buf mine(3, static_cast<double>(r.id()));
    Buffer all = gather(world, root, std::move(mine), counts);
    if (r.id() == root) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(3 * p));
      for (int i = 0; i < p; ++i)
        for (int c = 0; c < 3; ++c)
          ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(3 * i + c)],
                           static_cast<double>(i));
    } else {
      ASSERT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveGroup, ScatterGatherCostLogLatency) {
  const int p = GetParam();
  if (p == 1) return;
  const std::size_t each = 32;
  Machine m(p);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Counts counts(static_cast<std::size_t>(p), each);
    Buf all;
    if (r.id() == 0) all.assign(each * static_cast<std::size_t>(p), 1.0);
    Buffer mine = scatter(world, 0, std::move(all), counts);
    (void)gather(world, 0, std::move(mine), counts);
  });
  const double total = static_cast<double>(each * p);
  // Root does ceil(log p) sends in scatter plus ceil(log p) recvs in
  // gather, moving (n - n/p) words each way.
  EXPECT_DOUBLE_EQ(stats.max_msgs(), 2.0 * ilog2_ceil(p));
  EXPECT_DOUBLE_EQ(stats.max_words(), 2.0 * (total - each));
}

TEST_P(CollectiveGroup, BcastDeliversEverywhere) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    const int root = p / 2;
    const std::size_t count = 13;
    Buf data;
    if (r.id() == root)
      for (std::size_t i = 0; i < count; ++i)
        data.push_back(static_cast<double>(i) * 0.5);
    Buffer out = bcast(world, root, std::move(data), count);
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  });
}

TEST_P(CollectiveGroup, BcastCostTwoLogRounds) {
  const int p = GetParam();
  if (p == 1) return;
  const std::size_t count = 64;
  Machine m(p);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Buf data;
    if (r.id() == 0) data.assign(count, 2.0);
    (void)bcast(world, 0, data, count);
  });
  EXPECT_DOUBLE_EQ(stats.max_msgs(), 2.0 * ilog2_ceil(p));
  // W <= 2n (scatter moves ~n at the root, allgather ~n at every rank).
  EXPECT_LE(stats.max_words(), 2.0 * static_cast<double>(count) + 1);
}

TEST_P(CollectiveGroup, AllreduceSumsEverywhere) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    Buf full(10);
    for (std::size_t j = 0; j < full.size(); ++j)
      full[j] = static_cast<double>(r.id() + 1) * static_cast<double>(j);
    Buffer sum = allreduce(world, std::move(full));
    const double ranks_total = static_cast<double>(p) * (p + 1) / 2.0;
    for (std::size_t j = 0; j < sum.size(); ++j)
      ASSERT_DOUBLE_EQ(sum[j], ranks_total * static_cast<double>(j));
  });
}

TEST_P(CollectiveGroup, ReduceSumsAtRootOnly) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    Buf full(7, 1.0);
    Buffer sum = reduce(world, 0, std::move(full));
    if (r.id() == 0) {
      ASSERT_EQ(sum.size(), 7u);
      for (double v : sum) ASSERT_DOUBLE_EQ(v, static_cast<double>(p));
    } else {
      ASSERT_TRUE(sum.empty());
    }
  });
}

TEST_P(CollectiveGroup, AllreduceCostTwoLogRounds) {
  const int p = GetParam();
  if (!is_pow2(p) || p == 1) return;
  const std::size_t count = 32;
  Machine m(p);
  RunStats stats = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Buf full(count, 1.0);
    (void)allreduce(world, full);
  });
  const double n = static_cast<double>(count);
  EXPECT_DOUBLE_EQ(stats.max_msgs(), 2.0 * ilog2_exact(p));
  EXPECT_DOUBLE_EQ(stats.max_words(), 2.0 * (n - n / p));
  EXPECT_DOUBLE_EQ(stats.max_flops(), n - n / p);
}

TEST_P(CollectiveGroup, BarrierLatencyOnly) {
  const int p = GetParam();
  if (p == 1) return;
  Machine m(p);
  RunStats stats = m.run([](Rank& r) {
    Comm world = Comm::world(r);
    barrier(world);
  });
  EXPECT_DOUBLE_EQ(stats.max_msgs(), ilog2_ceil(p));
  EXPECT_DOUBLE_EQ(stats.max_words(), 0.0);
}

TEST_P(CollectiveGroup, AlltoallvBruckRoutesEverything) {
  const int p = GetParam();
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    std::vector<Buf> to_send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      // Variable sizes: rank s sends (s + d) % 3 + 1 values "s*1000 + d".
      const int cnt = (r.id() + d) % 3 + 1;
      to_send[d].assign(static_cast<std::size_t>(cnt),
                        static_cast<double>(r.id() * 1000 + d));
    }
    auto got = alltoallv(world, std::move(to_send));
    for (int s = 0; s < p; ++s) {
      const int cnt = (s + r.id()) % 3 + 1;
      ASSERT_EQ(got[s].size(), static_cast<std::size_t>(cnt));
      for (double v : got[s])
        ASSERT_DOUBLE_EQ(v, static_cast<double>(s * 1000 + r.id()));
    }
  });
}

TEST(Alltoallv, BruckLatencyIsLog) {
  const int p = 16;
  const std::size_t each = 8;
  Machine m(p);
  RunStats bruck = m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    std::vector<Buf> to_send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) to_send[d].assign(each, 1.0);
    (void)alltoallv(world, std::move(to_send));
  });

  EXPECT_DOUBLE_EQ(bruck.max_msgs(), ilog2_exact(p));
  // Bruck words ~ (total/2) log p plus 3-word headers.
  const double total = static_cast<double>(each) * (p - 1);
  EXPECT_GT(bruck.max_words(), total);
  EXPECT_LE(bruck.max_words(),
            (static_cast<double>(each) + 3.0) * p / 2.0 * ilog2_exact(p));
}

TEST(Collectives, EvenCountsCoverTotal) {
  const Counts c = even_counts(10, 4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(std::accumulate(c.begin(), c.end(), std::size_t{0}), 10u);
  EXPECT_EQ(c[0], 3u);
  EXPECT_EQ(c[3], 2u);
}

TEST(Collectives, SizeMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Rank& r) {
                 Comm world = Comm::world(r);
                 Buf mine(3, 0.0);
                 Counts counts{2, 2};  // lies about my size
                 (void)allgather(world, mine, counts);
               }),
               Error);
}

TEST(Collectives, SubcommunicatorCollectivesAreIndependent) {
  // Two disjoint halves run allreduce concurrently; sums must not mix.
  const int p = 8;
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    const int half = r.id() < p / 2 ? 0 : 1;
    Comm mine = world.range(half * p / 2, p / 2);
    Buf full{static_cast<double>(half + 1)};
    Buffer sum = allreduce(mine, std::move(full));
    ASSERT_DOUBLE_EQ(sum[0], static_cast<double>((half + 1) * p / 2));
  });
}

TEST(CollTags, DistinctGroupsGetDistinctTags) {
  Machine m(4);
  m.run([](Rank& r) {
    Comm world = Comm::world(r);
    Comm sub = world.range(0, 2);
    // Same op, different groups: tags must differ so nested collectives
    // cannot cross-match; same group: identical tag on every member.
    EXPECT_NE(coll_tag(CollOp::kScatter, world),
              coll_tag(CollOp::kScatter, sub));
    EXPECT_EQ(coll_tag(CollOp::kScatter, world),
              kTagBase + static_cast<int>(CollOp::kScatter) * kEpochSpace +
                  static_cast<int>(world.epoch() %
                                   static_cast<std::uint64_t>(kEpochSpace)));
    // Ops occupy disjoint tag bands on the same group.
    EXPECT_NE(coll_tag(CollOp::kScatter, world),
              coll_tag(CollOp::kGather, world));
    // All collective tags sit above the user point-to-point tag space.
    EXPECT_GE(coll_tag(CollOp::kAllgather, sub), kTagBase);
  });
}

TEST(CollTags, NestedScattersOnOverlappingGroupsDoNotCrossMatch) {
  // Regression for the communicator-epoch tags. Rank 0 scatters on the
  // subgroup {0, 1} (root 0: it only SENDS, so it finishes immediately)
  // and then joins a world scatter rooted at rank 2, where it *forwards*
  // a block to rank 1. Rank 1 runs the two scatters in the OPPOSITE
  // order. The (0 -> 1) wire thus carries rank 0's subgroup message
  // before its world message, while rank 1 receives world-first — with
  // op-only tags the world receive would FIFO-match the 5-word subgroup
  // payload (size corruption); the epoch in the tag keeps the streams
  // apart.
  const int p = 4;
  Machine m(p);
  m.run([p](Rank& r) {
    Comm world = Comm::world(r);
    const Counts wcounts{2, 3, 4, 1};
    Buf wall;
    if (r.id() == 2)
      for (int b = 0; b < p; ++b)
        for (std::size_t c = 0; c < wcounts[static_cast<std::size_t>(b)]; ++c)
          wall.push_back(static_cast<double>(1000 * b) +
                         static_cast<double>(c));

    auto run_world = [&] {
      Buffer mine = scatter(world, /*root=*/2, std::move(wall), wcounts);
      ASSERT_EQ(mine.size(), wcounts[static_cast<std::size_t>(r.id())]);
      for (std::size_t c = 0; c < mine.size(); ++c)
        ASSERT_DOUBLE_EQ(mine[c], static_cast<double>(1000 * r.id()) +
                                      static_cast<double>(c));
    };
    auto run_sub = [&] {
      Comm sub = world.range(0, 2);
      const Counts scounts{4, 5};
      Buf sall;
      if (r.id() == 0)
        for (int b = 0; b < 2; ++b)
          for (std::size_t c = 0; c < scounts[static_cast<std::size_t>(b)];
               ++c)
            sall.push_back(static_cast<double>(-100 * b) -
                           static_cast<double>(c));
      Buffer mine = scatter(sub, /*root=*/0, std::move(sall), scounts);
      ASSERT_EQ(mine.size(), scounts[static_cast<std::size_t>(r.id())]);
      for (std::size_t c = 0; c < mine.size(); ++c)
        ASSERT_DOUBLE_EQ(mine[c], static_cast<double>(-100 * r.id()) -
                                      static_cast<double>(c));
    };

    if (r.id() == 0) {
      run_sub();    // eager send to rank 1, completes without receiving
      run_world();  // then forwards rank 1's world block
    } else if (r.id() == 1) {
      run_world();  // world block arrives AFTER the subgroup payload
      run_sub();
    } else {
      run_world();
    }
  });
}

TEST(CollTags, ConcurrentRowAndColumnFiberCollectives) {
  // A 2x2 grid runs an allgather across every row fiber and then across
  // every column fiber, with deliberately different payload sizes per
  // phase. The fibers overlap (each rank sits in one row and one column),
  // and the real OS threads interleave the two phases arbitrarily —
  // per-communicator tags plus FIFO matching must keep every stream
  // intact on every interleaving.
  const int p = 4;
  Machine m(p);
  for (int round = 0; round < 8; ++round) {
    m.run([](Rank& r) {
      Comm world = Comm::world(r);
      const int row = r.id() / 2;
      const int col = r.id() % 2;
      Comm rowc = world.range(row * 2, 2);
      Comm colc = world.strided_fiber(2);

      Buf mine_row(3, static_cast<double>(r.id()));
      Buffer row_all = allgather_equal(rowc, std::move(mine_row));
      ASSERT_EQ(row_all.size(), 6u);
      for (int q = 0; q < 2; ++q)
        for (int c = 0; c < 3; ++c)
          ASSERT_DOUBLE_EQ(row_all[static_cast<std::size_t>(3 * q + c)],
                           static_cast<double>(row * 2 + q));

      Buf mine_col(5, static_cast<double>(10 + r.id()));
      Buffer col_all = allgather_equal(colc, std::move(mine_col));
      ASSERT_EQ(col_all.size(), 10u);
      for (int q = 0; q < 2; ++q)
        for (int c = 0; c < 5; ++c)
          ASSERT_DOUBLE_EQ(col_all[static_cast<std::size_t>(5 * q + c)],
                           static_cast<double>(10 + col + 2 * q));
    });
  }
}

}  // namespace
}  // namespace catrsm::coll
