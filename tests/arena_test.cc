// SlabArena: slab recycling, intrusive batch refcounting, pool bounds, and
// the lifetime guarantee that a Batch may outlive every arena handle.

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "stream/event.h"

namespace streamq {
namespace {

using IntArena = SlabArena<int>;

TEST(SlabArenaTest, AcquireReservesDefaultCapacity) {
  IntArena arena(IntArena::Options{.slab_capacity = 64});
  IntArena::Slab slab = arena.Acquire();
  EXPECT_TRUE(slab.empty());
  EXPECT_GE(slab.capacity(), 64u);
  // A pooled slab that its previous life left short is grown on reuse.
  IntArena::Slab small;
  small.reserve(8);
  arena.Recycle(std::move(small));
  IntArena::Slab regrown = arena.Acquire();
  EXPECT_GE(regrown.capacity(), 64u);
  EXPECT_EQ(arena.stats().slab_reuses, 1);
}

TEST(SlabArenaTest, RecycleKeepsCapacityAndServesReuses) {
  IntArena arena(IntArena::Options{.slab_capacity = 8});
  IntArena::Slab slab = arena.Acquire();
  for (int i = 0; i < 500; ++i) slab.push_back(i);
  arena.Recycle(std::move(slab));

  IntArena::Slab again = arena.Acquire();
  EXPECT_TRUE(again.empty());             // Contents discarded…
  EXPECT_GE(again.capacity(), 500u);      // …capacity survives the round trip.
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.slab_acquires, 2);
  EXPECT_EQ(stats.slab_reuses, 1);
  EXPECT_EQ(stats.slab_recycles, 1);
}

TEST(SlabArenaTest, ShareSwapsScratchSoFeedLoopsAllocateNothing) {
  IntArena arena(IntArena::Options{.slab_capacity = 16});
  IntArena::Slab scratch = arena.Acquire();

  scratch.assign({1, 2, 3});
  IntArena::Batch first = arena.Share(&scratch);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ((*first)[2], 3);
  // The scratch came back as a different (empty) buffer, ready to refill.
  EXPECT_TRUE(scratch.empty());

  first.reset();  // Node returns to the pool…
  scratch.assign({4, 5});
  IntArena::Batch second = arena.Share(&scratch);
  EXPECT_EQ((*second)[0], 4);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.batch_shares, 2);
  EXPECT_EQ(stats.batch_reuses, 1);  // …and the second share reused it.
}

TEST(SlabArenaTest, BatchCopiesShareOneNodeUntilLastReset) {
  IntArena arena;
  IntArena::Slab scratch = arena.Acquire();
  scratch.assign({7});
  IntArena::Batch a = arena.Share(&scratch);
  IntArena::Batch b = a;            // Copy: refcount 2, same storage.
  IntArena::Batch c = std::move(a);  // Move: no refcount traffic.
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(c);
  EXPECT_EQ(&*b, &*c);

  b.reset();
  EXPECT_EQ(arena.stats().free_batches, 0u);  // c still holds the node.
  c.reset();
  EXPECT_EQ(arena.stats().free_batches, 1u);  // Last reference pooled it.
}

TEST(SlabArenaTest, BatchOutlivesEveryArenaHandle) {
  IntArena::Batch survivor;
  {
    IntArena arena(IntArena::Options{.slab_capacity = 4});
    IntArena::Slab scratch = arena.Acquire();
    scratch.assign({42, 43});
    survivor = arena.Share(&scratch);
  }  // All arena handles gone; the batch keeps the pools alive.
  ASSERT_TRUE(survivor);
  EXPECT_EQ(survivor->at(0), 42);
  EXPECT_EQ(survivor->at(1), 43);
  survivor.reset();  // Last reference: pool dies with it (ASan watches).
}

TEST(SlabArenaTest, CopiedHandlesShareTheSamePools) {
  IntArena arena(IntArena::Options{.slab_capacity = 8});
  IntArena other = arena;  // Same pools, different handle.
  IntArena::Slab slab = arena.Acquire();
  slab.reserve(300);
  other.Recycle(std::move(slab));
  EXPECT_EQ(arena.stats().free_slabs, 1u);
  EXPECT_GE(other.Acquire().capacity(), 300u);
}

TEST(SlabArenaTest, PoolBoundsAreRespected) {
  IntArena arena(IntArena::Options{
      .slab_capacity = 4, .max_free_slabs = 2, .max_free_batches = 1});
  for (int i = 0; i < 4; ++i) {
    IntArena::Slab slab = arena.Acquire();
    arena.Recycle(std::move(slab));
    // Each round trip reuses the pooled slab, so the pool never overflows…
  }
  IntArena::Slab a = arena.Acquire();
  IntArena::Slab b = arena.Acquire();
  IntArena::Slab c = arena.Acquire();
  arena.Recycle(std::move(a));
  arena.Recycle(std::move(b));
  arena.Recycle(std::move(c));  // …but three at once exceeds max_free_slabs.
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.free_slabs, 2u);
  EXPECT_GE(stats.slab_drops, 1);
}

TEST(SlabArenaTest, DisabledPoolingDegradesToPlainHeap) {
  IntArena arena(IntArena::Options{
      .slab_capacity = 4, .max_free_slabs = 0, .max_free_batches = 0});
  IntArena::Slab slab = arena.Acquire();
  slab.push_back(1);
  IntArena::Batch batch = arena.Share(&slab);
  batch.reset();
  arena.Recycle(std::move(slab));
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.slab_reuses, 0);
  EXPECT_EQ(stats.batch_reuses, 0);
  EXPECT_EQ(stats.free_slabs, 0u);
  EXPECT_EQ(stats.free_batches, 0u);
}

TEST(SlabArenaTest, ZeroCapacitySlabIsNotPooled) {
  IntArena arena;
  IntArena::Slab empty;  // Never allocated: nothing worth keeping.
  arena.Recycle(std::move(empty));
  EXPECT_EQ(arena.stats().free_slabs, 0u);
}

/// The cross-thread pattern the runners rely on: one thread shares, another
/// drops the last reference; the node must land back in the *minting*
/// arena's pool, ready for reuse (TSan checks the handoff ordering).
TEST(SlabArenaTest, CrossThreadReleaseReturnsNodesHome) {
  IntArena arena(IntArena::Options{.slab_capacity = 8});
  constexpr int kBatches = 2000;
  std::vector<IntArena::Batch> in_flight(kBatches);
  IntArena::Slab scratch = arena.Acquire();
  for (int i = 0; i < kBatches; ++i) {
    scratch.assign({i});
    in_flight[static_cast<size_t>(i)] = arena.Share(&scratch);
  }
  int64_t sum = 0;
  std::thread consumer([&] {
    for (IntArena::Batch& b : in_flight) {
      sum += (*b)[0];
      b.reset();  // Last reference dropped off-thread.
    }
  });
  consumer.join();
  EXPECT_EQ(sum, int64_t{kBatches} * (kBatches - 1) / 2);
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.free_batches, std::min<size_t>(kBatches, 1024));
  // A second wave now runs entirely off the pool.
  for (int i = 0; i < 100; ++i) {
    scratch.assign({i});
    arena.Share(&scratch).reset();
  }
  EXPECT_GE(arena.stats().batch_reuses, 100);
}

TEST(EventArenaTest, SharesAndRecyclesEvents) {
  using EventArena = SlabArena<Event>;
  EventArena arena(EventArena::Options{.slab_capacity = 4});
  EventArena::Slab slab = arena.Acquire();
  Event e;
  e.id = 1;
  e.event_time = 10;
  e.arrival_time = 12;
  slab.push_back(e);
  EventArena::Batch batch = arena.Share(&slab);
  ASSERT_TRUE(batch);
  EXPECT_EQ((*batch)[0].id, 1);
  batch.reset();
  arena.Recycle(std::move(slab));
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.batch_shares, 1);
  EXPECT_EQ(stats.free_batches, 1u);
  EXPECT_EQ(stats.slab_recycles, 1);
}

}  // namespace
}  // namespace streamq
