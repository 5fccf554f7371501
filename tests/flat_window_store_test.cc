// FlatWindowStore invariants: O(1) lookup correctness, ordered scans,
// whole-bucket purging, ring growth, and the epoch contract that guards
// cached Slot pointers (the operator's fold-plan memo).

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/time.h"
#include "window/flat_window_store.h"

namespace streamq {
namespace {

using Slot = FlatWindowStore::Slot;
using Visit = FlatWindowStore::Visit;

TEST(FlatWindowStoreTest, GetOrCreateThenFind) {
  FlatWindowStore store(/*slide=*/100);
  bool created = false;
  Slot* s = store.GetOrCreate(300, /*key=*/7, &created);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(created);
  EXPECT_EQ(s->key, 7);
  s->state.n = 42;

  Slot* again = store.GetOrCreate(300, 7, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(again, s);
  EXPECT_EQ(store.Find(300, 7), s);
  EXPECT_EQ(store.Find(300, 8), nullptr);
  EXPECT_EQ(store.Find(200, 7), nullptr);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.live_buckets(), 1u);
}

TEST(FlatWindowStoreTest, ManyKeysPerBucketSurviveProbeGrowth) {
  FlatWindowStore store(100);
  bool created = false;
  for (int64_t k = 0; k < 500; ++k) {
    Slot* s = store.GetOrCreate(0, k, &created);
    ASSERT_TRUE(created);
    s->state.f0 = static_cast<double>(k);
  }
  EXPECT_EQ(store.size(), 500u);
  for (int64_t k = 0; k < 500; ++k) {
    Slot* s = store.Find(0, k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->key, k);
    EXPECT_EQ(s->state.f0, static_cast<double>(k));
  }
  EXPECT_EQ(store.Find(0, 500), nullptr);
}

TEST(FlatWindowStoreTest, ScanVisitsBucketsInAscendingStartOrder) {
  FlatWindowStore store(100);
  bool created = false;
  // Insert out of order, including negative starts (floor semantics).
  for (TimestampUs start : {400, -200, 0, 100, -300, 700}) {
    store.GetOrCreate(start, 1, &created);
  }
  std::vector<TimestampUs> seen;
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return Visit::kKeep;
  });
  EXPECT_EQ(seen,
            (std::vector<TimestampUs>{-300, -200, 0, 100, 400, 700}));
}

TEST(FlatWindowStoreTest, SortedByKeyOrdersSlots) {
  FlatWindowStore store(100);
  bool created = false;
  for (int64_t k : {9, -3, 5, 0, 12, 7}) store.GetOrCreate(0, k, &created);
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    std::vector<int64_t> keys;
    for (uint32_t idx : b.SortedByKey()) keys.push_back(b.slot(idx).key);
    EXPECT_EQ(keys, (std::vector<int64_t>{-3, 0, 5, 7, 9, 12}));
    return Visit::kKeep;
  });
  // Insertion invalidates the cached order; it must rebuild correctly.
  store.GetOrCreate(0, 3, &created);
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    std::vector<int64_t> keys;
    for (uint32_t idx : b.SortedByKey()) keys.push_back(b.slot(idx).key);
    EXPECT_EQ(keys, (std::vector<int64_t>{-3, 0, 3, 5, 7, 9, 12}));
    return Visit::kKeep;
  });
}

TEST(FlatWindowStoreTest, PurgeRemovesWholeBucketAndStopsEarly) {
  FlatWindowStore store(100);
  bool created = false;
  for (TimestampUs start : {0, 100, 200, 300}) {
    store.GetOrCreate(start, 1, &created);
    store.GetOrCreate(start, 2, &created);
  }
  ASSERT_EQ(store.size(), 8u);

  // Purge everything below 200, stop at 200 (monotone early-out).
  std::vector<TimestampUs> visited;
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    visited.push_back(b.start());
    if (b.start() < 200) return Visit::kPurge;
    return Visit::kStop;
  });
  EXPECT_EQ(visited, (std::vector<TimestampUs>{0, 100, 200}));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.live_buckets(), 2u);
  EXPECT_EQ(store.Find(0, 1), nullptr);
  EXPECT_EQ(store.Find(100, 2), nullptr);
  EXPECT_NE(store.Find(200, 1), nullptr);
  EXPECT_NE(store.Find(300, 2), nullptr);

  // After the purge the scan starts at the first live bucket.
  visited.clear();
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    visited.push_back(b.start());
    return Visit::kKeep;
  });
  EXPECT_EQ(visited, (std::vector<TimestampUs>{200, 300}));
}

TEST(FlatWindowStoreTest, RingGrowsPastInitialCapacity) {
  FlatWindowStore store(10);
  bool created = false;
  // 1000 live starts forces repeated geometric ring growth.
  for (int64_t i = 0; i < 1000; ++i) {
    Slot* s = store.GetOrCreate(i * 10, /*key=*/i % 3, &created);
    ASSERT_TRUE(created);
    s->state.n = i;
  }
  EXPECT_EQ(store.live_buckets(), 1000u);
  for (int64_t i = 0; i < 1000; ++i) {
    Slot* s = store.Find(i * 10, i % 3);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->state.n, i);
  }
  std::vector<TimestampUs> seen;
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return Visit::kKeep;
  });
  ASSERT_EQ(seen.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(FlatWindowStoreTest, SparseStartsFarApart) {
  // Live starts an hour of 1 ms slides apart, several of them sharing a
  // ring cell (quotients differing by a power of two): lookups, ordered
  // scans and purges must all stay exact without sizing the ring to the
  // gap, and the store must return to cell-by-cell scans once the gap
  // closes.
  FlatWindowStore store(/*slide=*/1000);
  bool created = false;
  const TimestampUs hour = Seconds(3600);
  const std::vector<TimestampUs> starts = {
      hour + 1000, 0, hour, 64 * 1000, 1000, hour + 32 * 1000, -64 * 1000};
  for (size_t i = 0; i < starts.size(); ++i) {
    Slot* s = store.GetOrCreate(starts[i], /*key=*/1, &created);
    ASSERT_TRUE(created);
    s->state.n = static_cast<int64_t>(i);
  }
  EXPECT_EQ(store.live_buckets(), starts.size());
  for (size_t i = 0; i < starts.size(); ++i) {
    Slot* s = store.Find(starts[i], 1);
    ASSERT_NE(s, nullptr) << starts[i];
    EXPECT_EQ(s->state.n, static_cast<int64_t>(i));
  }
  EXPECT_EQ(store.Find(hour - 1000, 1), nullptr);
  EXPECT_EQ(store.Find(128 * 1000, 1), nullptr);

  // Ascending order across the gap; purge everything before it.
  std::vector<TimestampUs> seen;
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return b.start() < hour ? Visit::kPurge : Visit::kKeep;
  });
  EXPECT_EQ(seen, (std::vector<TimestampUs>{-64 * 1000, 0, 1000, 64 * 1000,
                                            hour, hour + 1000,
                                            hour + 32 * 1000}));
  EXPECT_EQ(store.live_buckets(), 3u);
  EXPECT_EQ(store.Find(0, 1), nullptr);
  ASSERT_NE(store.Find(hour + 32 * 1000, 1), nullptr);

  // Gap closed: new buckets fill in and scans stay ordered.
  store.GetOrCreate(hour + 2000, 1, &created);
  EXPECT_TRUE(created);
  seen.clear();
  store.Scan(kMinTimestamp, [&](FlatWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return Visit::kKeep;
  });
  EXPECT_EQ(seen, (std::vector<TimestampUs>{hour, hour + 1000, hour + 2000,
                                            hour + 32 * 1000}));
}

// Scan(from, ...) visits exactly the live starts >= from, in order, for
// every bound: on, between and outside the live starts.
void ExpectBoundedScansExact(FlatWindowStore& store,
                             std::vector<TimestampUs> starts) {
  std::sort(starts.begin(), starts.end());
  std::vector<TimestampUs> bounds = {kMinTimestamp, kMaxTimestamp};
  for (TimestampUs s : starts) {
    bounds.insert(bounds.end(), {s - 1, s, s + 1});
  }
  for (TimestampUs from : bounds) {
    std::vector<TimestampUs> want;
    for (TimestampUs s : starts) {
      if (s >= from) want.push_back(s);
    }
    std::vector<TimestampUs> seen;
    store.Scan(from, [&](FlatWindowStore::Bucket& b) {
      seen.push_back(b.start());
      return Visit::kKeep;
    });
    EXPECT_EQ(seen, want) << "from " << from;
  }
}

TEST(FlatWindowStoreTest, ScanFromBoundDenseRing) {
  FlatWindowStore store(/*slide=*/100);
  bool created = false;
  std::vector<TimestampUs> starts;
  for (TimestampUs start = -500; start <= 2000; start += 100) {
    if (start % 300 == 0) continue;  // Some empty cells.
    store.GetOrCreate(start, /*key=*/1, &created);
    starts.push_back(start);
  }
  ExpectBoundedScansExact(store, starts);

  // A bounded scan that purges from the middle leaves the rest intact.
  store.Scan(450, [&](FlatWindowStore::Bucket& b) {
    return b.start() < 1000 ? Visit::kPurge : Visit::kStop;
  });
  std::erase_if(starts, [](TimestampUs s) { return s >= 450 && s < 1000; });
  EXPECT_EQ(store.live_buckets(), starts.size());
  ExpectBoundedScansExact(store, starts);
}

TEST(FlatWindowStoreTest, ScanFromBoundChainedSparse) {
  // An hour gap at 1 ms slides: the ring does not cover the span, and
  // quotients a power of two apart share a cell.
  FlatWindowStore store(/*slide=*/1000);
  bool created = false;
  const TimestampUs hour = Seconds(3600);
  std::vector<TimestampUs> starts = {-64 * 1000, 0,          1000,
                                     64 * 1000,  hour,       hour + 1000,
                                     hour + 64 * 1000};
  for (TimestampUs start : starts) store.GetOrCreate(start, 1, &created);
  ExpectBoundedScansExact(store, starts);

  store.Scan(1, [&](FlatWindowStore::Bucket& b) {
    return b.start() < hour ? Visit::kPurge : Visit::kStop;
  });
  std::erase_if(starts, [hour](TimestampUs s) { return s >= 1 && s < hour; });
  EXPECT_EQ(store.live_buckets(), starts.size());
  ExpectBoundedScansExact(store, starts);
}

TEST(FlatWindowStoreTest, EpochBumpsOnInsertAndPurge) {
  FlatWindowStore store(100);
  bool created = false;
  const uint64_t e0 = store.epoch();
  store.GetOrCreate(0, 1, &created);
  const uint64_t e1 = store.epoch();
  EXPECT_GT(e1, e0);  // Insert bumps (slot vector may have moved).

  store.GetOrCreate(0, 1, &created);  // Pure lookup: no bump.
  EXPECT_EQ(store.epoch(), e1);
  store.Find(0, 1);
  EXPECT_EQ(store.epoch(), e1);

  store.GetOrCreate(0, 2, &created);  // Same-bucket insert bumps.
  const uint64_t e2 = store.epoch();
  EXPECT_GT(e2, e1);

  store.Scan(kMinTimestamp,
             [](FlatWindowStore::Bucket&) { return Visit::kPurge; });
  EXPECT_GT(store.epoch(), e2);  // Purge bumps.
  EXPECT_EQ(store.size(), 0u);

  // Store is reusable after full purge.
  store.GetOrCreate(700, 3, &created);
  EXPECT_TRUE(created);
  EXPECT_NE(store.Find(700, 3), nullptr);
}

}  // namespace
}  // namespace streamq
