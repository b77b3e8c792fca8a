// Tests for sim::Buffer: view aliasing, refcount release, copy-on-write,
// slab recycling (per thread and across threads), and the concat adjacency
// fast path — the semantics the zero-copy transport stack depends on.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "sim/buffer.hpp"
#include "sim/slab.hpp"

namespace catrsm::sim {
namespace {

TEST(Buffer, AdoptsVectorWithoutCopy) {
  std::vector<double> v{1.0, 2.0, 3.0};
  const double* storage = v.data();
  Buffer b(std::move(v));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data(), storage);  // same heap block: adoption, not a copy
  EXPECT_EQ(b.use_count(), 1);
}

TEST(Buffer, SlicesAliasTheSlab) {
  Buffer b(std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0});
  Buffer mid = b.slice(1, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_DOUBLE_EQ(mid[0], 1.0);
  EXPECT_DOUBLE_EQ(mid[2], 3.0);
  EXPECT_TRUE(mid.aliases(b));
  EXPECT_EQ(mid.data(), b.data() + 1);  // a view, not a copy
  EXPECT_EQ(b.use_count(), 2);

  Buffer inner = mid.slice(1, 1);  // slicing a slice composes offsets
  EXPECT_DOUBLE_EQ(inner[0], 2.0);
  EXPECT_EQ(inner.data(), b.data() + 2);
  EXPECT_EQ(b.use_count(), 3);
}

TEST(Buffer, RefcountDropsWhenViewsDie) {
  Buffer b(std::vector<double>{1.0, 2.0});
  {
    Buffer copy = b;
    Buffer view = b.slice(0, 1);
    EXPECT_EQ(b.use_count(), 3);
  }
  EXPECT_EQ(b.use_count(), 1);
  b = Buffer{};
  EXPECT_EQ(b.use_count(), 0);  // slab released
}

TEST(Buffer, CopyOnWriteLeavesOtherViewsUntouched) {
  Buffer a(std::vector<double>{1.0, 2.0, 3.0});
  Buffer shared = a;
  double* w = shared.mutable_data();
  w[0] = 99.0;
  EXPECT_DOUBLE_EQ(shared[0], 99.0);
  EXPECT_DOUBLE_EQ(a[0], 1.0);          // original view unchanged
  EXPECT_FALSE(shared.aliases(a));      // writer reseated onto a private slab
  EXPECT_EQ(a.use_count(), 1);
}

TEST(Buffer, MutatesInPlaceWhenUnique) {
  Buffer a(std::vector<double>{1.0, 2.0});
  const double* before = a.data();
  a.mutable_data()[1] = 7.0;
  EXPECT_EQ(a.data(), before);  // sole owner: no copy
  EXPECT_DOUBLE_EQ(a[1], 7.0);
}

TEST(Buffer, ConcatAdjacentSlicesIsZeroCopy) {
  Buffer b(std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  std::vector<Buffer> parts{b.slice(0, 2), b.slice(2, 3)};
  Buffer joined = concat(parts);
  EXPECT_EQ(joined.size(), 5u);
  EXPECT_TRUE(joined.aliases(b));      // adjacent views widen in place
  EXPECT_EQ(joined.data(), b.data());
}

TEST(Buffer, ConcatNonAdjacentPartsPacks) {
  Buffer b(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  std::vector<Buffer> parts{b.slice(2, 2), b.slice(0, 2)};  // out of order
  Buffer joined = concat(parts);
  ASSERT_EQ(joined.size(), 4u);
  EXPECT_FALSE(joined.aliases(b));
  EXPECT_DOUBLE_EQ(joined[0], 2.0);
  EXPECT_DOUBLE_EQ(joined[3], 1.0);
}

TEST(Buffer, ConcatSkipsEmptyPartsAndForwardsSingletons) {
  Buffer b(std::vector<double>{1.0, 2.0});
  std::vector<Buffer> parts{Buffer{}, b, Buffer{}};
  Buffer joined = concat(parts);
  EXPECT_TRUE(joined.aliases(b));
  EXPECT_EQ(joined.data(), b.data());
  EXPECT_EQ(concat(std::vector<Buffer>{}).size(), 0u);
}

TEST(Buffer, UninitSlabPoolRecyclesSameStorage) {
  const double* storage = nullptr;
  {
    Buffer a = Buffer::uninit(1000);
    storage = a.data();
    ASSERT_NE(storage, nullptr);
  }  // last view dropped: the slab re-enters the pool
  // Same power-of-two size class (1024 doubles): the LIFO freelist hands
  // the identical storage back instead of allocating.
  Buffer b = Buffer::uninit(900);
  EXPECT_EQ(b.data(), storage);
}

TEST(Buffer, PoisonFillExposesUnwrittenWords) {
  // Under poison mode a recycled slab arrives NaN-filled, so any consumer
  // that reads a word it never wrote propagates NaN instead of silently
  // reusing stale message bytes. A fully-written payload is NaN-free.
  const double* recycled = nullptr;
  {
    Buffer dirty = Buffer::uninit(256);
    double* w = dirty.mutable_data();
    for (std::size_t i = 0; i < dirty.size(); ++i) w[i] = 1.0;
    recycled = dirty.data();
  }  // recycled: stale 1.0s now sit on top of the LIFO freelist
  const bool was_poisoned = la::uninit_poison();
  la::set_uninit_poison(true);
  Buffer a = Buffer::uninit(256);
  ASSERT_EQ(a.data(), recycled);    // the same slab came back...
  EXPECT_TRUE(std::isnan(a[0]));    // ...with the stale bytes overwritten
  EXPECT_TRUE(std::isnan(a[255]));  // ... out to the full view
  double* w = a.mutable_data();
  for (std::size_t i = 0; i < a.size(); ++i) w[i] = 2.0;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 2.0);

  // concat's packing path writes every destination word.
  Buffer src(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  std::vector<Buffer> parts{src.slice(2, 2), src.slice(0, 2)};
  Buffer joined = concat(parts);
  for (std::size_t i = 0; i < joined.size(); ++i)
    ASSERT_FALSE(std::isnan(joined[i]));
  la::set_uninit_poison(was_poisoned);
}

TEST(Buffer, SmallSlabComesBackOnTheThreadThatReleasedIt) {
  // Classes up to 64 KiB land in the releasing thread's own cache: an
  // acquisition of the class on another thread in between does not take
  // the slab, and the releasing thread's next acquisition does.
  Buffer a = Buffer::uninit(3000);  // 4,096-double class, 32 KiB
  const double* storage = a.data();
  const double* again = nullptr;
  std::promise<void> released;
  std::promise<void> acquired;
  std::thread releaser([&] {
    { Buffer mine = std::move(a); }
    released.set_value();
    acquired.get_future().wait();
    const Buffer b = Buffer::uninit(2500);
    again = b.data();
  });
  released.get_future().wait();
  const Buffer other = Buffer::uninit(3500);
  acquired.set_value();
  releaser.join();
  EXPECT_NE(other.data(), storage);
  EXPECT_EQ(again, storage);
}

TEST(Buffer, LargeSlabReleasedOnAnotherThreadReachesTheAcquirer) {
  // Classes above 64 KiB skip the per-thread cache: a slab freed by a
  // thread that is still alive reaches the next thread that acquires the
  // class, instead of staying stranded with the thread that freed it.
  Buffer a = Buffer::uninit(10000);  // 16,384-double class, 128 KiB
  const double* storage = a.data();
  std::promise<void> released;
  std::promise<void> acquired;
  std::thread releaser([&] {
    { Buffer mine = std::move(a); }
    released.set_value();
    acquired.get_future().wait();
  });
  released.get_future().wait();
  const Buffer b = Buffer::uninit(9000);
  acquired.set_value();
  releaser.join();
  EXPECT_EQ(b.data(), storage);
}

TEST(Buffer, ExitingThreadHandsItsCachedSlabsToTheSharedPool) {
  // A thread's exit returns the slabs its cache holds to the shared pool.
  // A Buffer that a thread_local built before the cache still holds is
  // released after the cache is destroyed; it must go to the shared pool
  // too, not into the destroyed cache, where it would be lost.
  struct LateRelease {
    LateRelease() {}  // not constexpr: constructed on first use
    Buffer held;
  };
  constexpr std::size_t kN = 700;  // 1,024-double class, 8 KiB
  std::set<const double*> handed_back;
  std::thread([&] {
    thread_local LateRelease late;  // constructed before the slab cache
    std::vector<Buffer> bufs;
    for (int i = 0; i < 3; ++i) bufs.push_back(Buffer::uninit(kN));
    for (const Buffer& b : bufs) handed_back.insert(b.data());
    late.held = std::move(bufs[0]);
    bufs.clear();  // the first release creates the cache, which keeps both
  }).join();
  ASSERT_EQ(handed_back.size(), 3u);
  // A fresh thread has an empty cache, so its acquisitions come from the
  // top of the shared pool.
  std::set<const double*> received;
  std::thread([&] {
    std::vector<Buffer> bufs;
    for (int i = 0; i < 3; ++i) bufs.push_back(Buffer::uninit(kN));
    for (const Buffer& b : bufs) received.insert(b.data());
  }).join();
  EXPECT_EQ(received, handed_back);
}

TEST(Buffer, SpanAndVectorInterop) {
  std::vector<double> src{1.0, 2.0, 3.0};
  Buffer from_span{std::span<const double>(src)};
  EXPECT_NE(from_span.data(), src.data());  // spans copy at the boundary
  EXPECT_EQ(from_span.to_vector(), src);
  std::span<const double> back = from_span;  // implicit view conversion
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(back.data(), from_span.data());
}

}  // namespace
}  // namespace catrsm::sim
