#include "disorder/reorder_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/reference/reference_reorder_buffer.h"

namespace streamq {
namespace {

using reference::HeapReorderBuffer;

Event MakeEvent(int64_t id, TimestampUs ts) {
  Event e;
  e.id = id;
  e.event_time = ts;
  return e;
}

/// The buffer contract holds for the library's bucket ring and for the
/// reference heap the differential tests below compare it against.
enum class Impl { kHeap, kRing };

/// Hands `body` a factory for fresh buffers of the parameterised
/// implementation.
template <typename Body>
void ForImpl(Impl impl, Body body) {
  if (impl == Impl::kRing) {
    body([] { return ReorderBuffer(); });
  } else {
    body([] { return HeapReorderBuffer(); });
  }
}

class ReorderBufferTest : public ::testing::TestWithParam<Impl> {};

TEST_P(ReorderBufferTest, StartsEmpty) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.max_size(), 0u);
  });
}

TEST_P(ReorderBufferTest, PopMinReturnsEarliest) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    buf.Push(MakeEvent(0, 300));
    buf.Push(MakeEvent(1, 100));
    buf.Push(MakeEvent(2, 200));
    EXPECT_EQ(buf.MinEventTime(), 100);
    Event e;
    buf.PopMin(&e);
    EXPECT_EQ(e.event_time, 100);
    buf.PopMin(&e);
    EXPECT_EQ(e.event_time, 200);
    buf.PopMin(&e);
    EXPECT_EQ(e.event_time, 300);
    EXPECT_TRUE(buf.empty());
  });
}

TEST_P(ReorderBufferTest, TieBrokenById) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    buf.Push(MakeEvent(5, 100));
    buf.Push(MakeEvent(2, 100));
    buf.Push(MakeEvent(9, 100));
    Event e;
    buf.PopMin(&e);
    EXPECT_EQ(e.id, 2);
    buf.PopMin(&e);
    EXPECT_EQ(e.id, 5);
    buf.PopMin(&e);
    EXPECT_EQ(e.id, 9);
  });
}

TEST_P(ReorderBufferTest, PopUpToReleasesPrefixOnly) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    for (int i = 0; i < 10; ++i) buf.Push(MakeEvent(i, i * 100));
    std::vector<Event> out;
    const size_t n = buf.PopUpTo(450, &out);
    EXPECT_EQ(n, 5u);  // ts 0, 100, 200, 300, 400.
    EXPECT_EQ(buf.size(), 5u);
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1].event_time, out[i].event_time);
    }
    EXPECT_EQ(out.back().event_time, 400);
  });
}

TEST_P(ReorderBufferTest, PopUpToInclusiveThreshold) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    buf.Push(MakeEvent(0, 100));
    std::vector<Event> out;
    EXPECT_EQ(buf.PopUpTo(99, &out), 0u);
    EXPECT_EQ(buf.PopUpTo(100, &out), 1u);
  });
}

TEST_P(ReorderBufferTest, MaxSizeTracksHighWater) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    for (int i = 0; i < 5; ++i) buf.Push(MakeEvent(i, i));
    std::vector<Event> out;
    buf.PopUpTo(10, &out);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.max_size(), 5u);
    buf.Push(MakeEvent(9, 9));
    EXPECT_EQ(buf.max_size(), 5u);  // Unchanged.
  });
}

TEST_P(ReorderBufferTest, ClearEmpties) {
  ForImpl(GetParam(), [](auto make) {
    auto buf = make();
    buf.Push(MakeEvent(0, 1));
    buf.Clear();
    EXPECT_TRUE(buf.empty());
    // Still usable after Clear.
    buf.Push(MakeEvent(1, 7));
    EXPECT_EQ(buf.MinEventTime(), 7);
  });
}

TEST_P(ReorderBufferTest, PushBatchMatchesPerPush) {
  ForImpl(GetParam(), [](auto make) {
    Rng rng(99);
    std::vector<Event> events;
    for (int i = 0; i < 300; ++i) {
      events.push_back(MakeEvent(i, rng.NextInt(0, 5000)));
    }
    auto a = make();
    auto b = make();
    for (const Event& e : events) a.Push(e);
    b.PushBatch(events);
    std::vector<Event> out_a;
    std::vector<Event> out_b;
    a.DrainInto(&out_a);
    b.DrainInto(&out_b);
    EXPECT_EQ(out_a, out_b);
  });
}

TEST_P(ReorderBufferTest, RandomizedOrderProperty) {
  // Property test: pushing N random events and popping them all yields a
  // sorted sequence identical to std::sort.
  ForImpl(GetParam(), [](auto make) {
    Rng rng(4242);
    for (int trial = 0; trial < 20; ++trial) {
      auto buf = make();
      std::vector<Event> reference;
      const int n = static_cast<int>(rng.NextInt(1, 500));
      for (int i = 0; i < n; ++i) {
        const Event e = MakeEvent(i, rng.NextInt(0, 1000));
        buf.Push(e);
        reference.push_back(e);
      }
      std::sort(reference.begin(), reference.end(), EventTimeLess());
      std::vector<Event> popped;
      buf.PopUpTo(kMaxTimestamp, &popped);
      ASSERT_EQ(popped.size(), reference.size());
      for (size_t i = 0; i < popped.size(); ++i) {
        EXPECT_EQ(popped[i].id, reference[i].id) << "trial " << trial;
      }
    }
  });
}

TEST_P(ReorderBufferTest, InterleavedPushPop) {
  // Pops between pushes must still produce globally plausible order for
  // the released prefixes.
  ForImpl(GetParam(), [](auto make) {
    Rng rng(7);
    auto buf = make();
    std::vector<Event> released;
    TimestampUs threshold = 0;
    for (int i = 0; i < 1000; ++i) {
      buf.Push(MakeEvent(i, rng.NextInt(threshold, threshold + 200)));
      if (i % 10 == 9) {
        threshold += 50;
        buf.PopUpTo(threshold, &released);
      }
    }
    buf.PopUpTo(kMaxTimestamp, &released);
    EXPECT_EQ(released.size(), 1000u);
    for (size_t i = 1; i < released.size(); ++i) {
      EXPECT_LE(released[i - 1].event_time, released[i].event_time);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ReorderBufferTest,
                         ::testing::Values(Impl::kHeap, Impl::kRing),
                         [](const ::testing::TestParamInfo<Impl>& info) {
                           return info.param == Impl::kHeap ? "Heap" : "Ring";
                         });

// --- Ring against the reference heap --------------------------------------

/// Replays an identical interleaved push/pop schedule on the ring and the
/// reference heap and requires byte-identical releases at every step.
void ExpectEnginesAgree(uint32_t seed, TimestampUs time_range,
                        int batch_every) {
  Rng rng(seed);
  HeapReorderBuffer heap;
  ReorderBuffer ring;
  std::vector<Event> schedule;
  TimestampUs base = 0;
  for (int i = 0; i < 3000; ++i) {
    schedule.push_back(MakeEvent(i, base + rng.NextInt(0, time_range)));
    base += time_range / 200 + 1;  // Advancing frontier, K-slack style.
  }
  std::vector<Event> out_heap;
  std::vector<Event> out_ring;
  size_t i = 0;
  while (i < schedule.size()) {
    if (batch_every > 0 && i % static_cast<size_t>(batch_every) == 0) {
      const size_t n =
          std::min<size_t>(static_cast<size_t>(batch_every), schedule.size() - i);
      const std::span<const Event> chunk(schedule.data() + i, n);
      heap.PushBatch(chunk);
      ring.PushBatch(chunk);
      i += n;
    } else {
      heap.Push(schedule[i]);
      ring.Push(schedule[i]);
      ++i;
    }
    if (i % 37 == 0) {
      const TimestampUs threshold = schedule[i - 1].event_time - time_range / 3;
      ASSERT_EQ(heap.PopUpTo(threshold, &out_heap),
                ring.PopUpTo(threshold, &out_ring));
      ASSERT_EQ(out_heap, out_ring);
      ASSERT_EQ(heap.size(), ring.size());
    }
  }
  heap.DrainInto(&out_heap);
  ring.DrainInto(&out_ring);
  EXPECT_EQ(out_heap, out_ring);
  EXPECT_EQ(out_heap.size(), schedule.size());
}

TEST(ReorderBufferEngines, AgreeOnNarrowTimeRange) {
  ExpectEnginesAgree(/*seed=*/11, /*time_range=*/64, /*batch_every=*/0);
}

TEST(ReorderBufferEngines, AgreeOnWideTimeRange) {
  // Span far beyond the initial bucket layout: forces widen rebucketing.
  ExpectEnginesAgree(/*seed=*/12, /*time_range=*/5'000'000, /*batch_every=*/0);
}

TEST(ReorderBufferEngines, AgreeWithBatchedPushes) {
  ExpectEnginesAgree(/*seed=*/13, /*time_range=*/100'000, /*batch_every=*/64);
}

TEST(ReorderBufferEngines, AgreeOnDuplicateTimestamps) {
  // Heavy ties: pop order must fall back to id deterministically.
  Rng rng(21);
  HeapReorderBuffer heap;
  ReorderBuffer ring;
  std::vector<Event> out_heap;
  std::vector<Event> out_ring;
  for (int i = 0; i < 2000; ++i) {
    const Event e = MakeEvent(i, rng.NextInt(0, 16));
    heap.Push(e);
    ring.Push(e);
  }
  heap.PopUpTo(16, &out_heap);
  ring.PopUpTo(16, &out_ring);
  EXPECT_EQ(out_heap, out_ring);
  EXPECT_EQ(out_heap.size(), 2000u);
}

TEST(ReorderBufferRing, SurvivesSlackCollapseAndGrowth) {
  // Slack regime change: a wide span (wide buckets) followed by a tight
  // cluster (narrow rebucketing) followed by another widening. All events
  // must come back in exact order.
  ReorderBuffer ring;
  HeapReorderBuffer heap;
  int64_t id = 0;
  auto push_both = [&](TimestampUs t) {
    const Event e = MakeEvent(id++, t);
    ring.Push(e);
    heap.Push(e);
  };
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) push_both(rng.NextInt(0, 10'000'000));
  std::vector<Event> out_ring;
  std::vector<Event> out_heap;
  ring.PopUpTo(10'000'000, &out_ring);
  heap.PopUpTo(10'000'000, &out_heap);
  ASSERT_EQ(out_ring, out_heap);
  // Tight cluster: hundreds of events inside a few microseconds.
  for (int i = 0; i < 1000; ++i) push_both(20'000'000 + rng.NextInt(0, 8));
  // Wide again.
  for (int i = 0; i < 500; ++i) {
    push_both(20'000'000 + rng.NextInt(0, 50'000'000));
  }
  out_ring.clear();
  out_heap.clear();
  ring.DrainInto(&out_ring);
  heap.DrainInto(&out_heap);
  EXPECT_EQ(out_ring, out_heap);
  EXPECT_EQ(out_ring.size(), 1500u);
}

TEST(ReorderBufferRing, MinEventTimeOnUnsortedBoundaryBucket) {
  // Two out-of-order events in the same bucket: MinEventTime must scan the
  // unsorted live range, not report the first insertion.
  ReorderBuffer ring;
  ring.Push(MakeEvent(0, 150));
  ring.Push(MakeEvent(1, 120));  // Same 256us bucket, earlier time.
  EXPECT_EQ(ring.MinEventTime(), 120);
}

// --- Differential property test ------------------------------------------

/// Event-time spans a schedule moves between: 1us to ~3.5 days, so the
/// ring widens, sparse-widens (few events over a huge span) and narrows.
constexpr DurationUs kSpans[] = {1,          16,          1'000,
                                 100'000,    10'000'000,  86'400'000'000,
                                 300'000'000'000};

/// Drives the ring and the reference heap through one seeded random
/// schedule of every buffer operation and requires identical observable
/// state after every step: size, high water, minimum and each popped
/// sequence. The release threshold trails the frontier by a K that grows
/// and shrinks, and sometimes steps back below the previous threshold.
void RunDifferentialSchedule(uint64_t seed) {
  Rng rng(seed);
  ReorderBuffer ring;
  HeapReorderBuffer heap;

  int64_t next_id = 0;
  // Odd multiplier: a bijection on 32 bits, so ids are unique but arrive
  // out of order and tie-breaks by id are exercised.
  const auto make = [&](TimestampUs t) {
    return MakeEvent(static_cast<int64_t>(
                         (static_cast<uint64_t>(next_id++) * 2654435761u) &
                         0xffffffffu),
                     t);
  };
  const auto pick_span = [&] {
    return kSpans[rng.NextInt(0, static_cast<int64_t>(std::size(kSpans)) - 1)];
  };
  DurationUs span = pick_span();
  // Negative event times half the time.
  TimestampUs frontier = rng.NextBool(0.5) ? -rng.NextInt(0, 1'000'000'000)
                                           : rng.NextInt(0, 1'000'000'000);
  DurationUs k = span / 2;
  TimestampUs last_threshold = frontier - k;
  std::vector<Event> batch;
  std::vector<Event> out_ring;
  std::vector<Event> out_heap;

  const auto next_time = [&] {
    if (rng.NextBool(0.2)) {
      return frontier - rng.NextInt(0, 3);  // Heavy ties near the frontier.
    }
    const TimestampUs t = frontier - rng.NextInt(0, span) +
                          rng.NextInt(0, std::max<DurationUs>(1, span / 64));
    frontier = std::max(frontier, t);
    return t;
  };

  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " step=" + std::to_string(step));
    const int64_t op = rng.NextInt(0, 99);
    out_ring.clear();
    out_heap.clear();
    if (op < 40) {
      const Event e = make(next_time());
      ring.Push(e);
      heap.Push(e);
    } else if (op < 50) {
      // Mostly small batches, sometimes larger than the whole buffer.
      const int64_t n =
          rng.NextBool(0.25) ? rng.NextInt(200, 600) : rng.NextInt(1, 64);
      batch.clear();
      for (int64_t i = 0; i < n; ++i) batch.push_back(make(next_time()));
      ring.PushBatch(batch);
      heap.PushBatch(batch);
    } else if (op < 75) {
      // K drifts by up to 2x either way; sometimes the threshold lands on
      // a buffered event time exactly, or steps back below the last one.
      const double drift = rng.NextUniform(0.5, 2.0);
      k = std::clamp<DurationUs>(
          static_cast<DurationUs>(
              static_cast<double>(std::max<DurationUs>(k, 1)) * drift),
          0, 4 * span);
      TimestampUs threshold = frontier - k;
      const int64_t mode = rng.NextInt(0, 9);
      if (mode < 3 && !heap.empty()) {
        threshold = heap.MinEventTime() + rng.NextInt(0, 2);
      } else if (mode == 3) {
        threshold = last_threshold - rng.NextInt(0, span);
      }
      last_threshold = threshold;
      ASSERT_EQ(ring.PopUpTo(threshold, &out_ring),
                heap.PopUpTo(threshold, &out_heap));
      ASSERT_EQ(out_ring, out_heap);
    } else if (op < 85) {
      const int64_t n = rng.NextInt(1, 3);
      for (int64_t i = 0; i < n && !heap.empty(); ++i) {
        out_ring.emplace_back();
        out_heap.emplace_back();
        ring.PopMin(&out_ring.back());
        heap.PopMin(&out_heap.back());
      }
      ASSERT_EQ(out_ring, out_heap);
    } else if (op < 88) {
      ASSERT_EQ(ring.DrainInto(&out_ring), heap.DrainInto(&out_heap));
      ASSERT_EQ(out_ring, out_heap);
    } else if (op < 90) {
      ring.Clear();
      heap.Clear();
    } else if (op < 96) {
      // Regime change: a new event-time span (widen or narrow).
      span = pick_span();
      k = std::min(k, 4 * span);
    } else {
      // Outlier far ahead of the frontier (sparse widen).
      frontier += rng.NextInt(span, 8 * span);
      const Event e = make(frontier);
      ring.Push(e);
      heap.Push(e);
    }
    ASSERT_EQ(ring.size(), heap.size());
    ASSERT_EQ(ring.empty(), heap.empty());
    ASSERT_EQ(ring.max_size(), heap.max_size());
    if (!heap.empty()) {
      ASSERT_EQ(ring.MinEventTime(), heap.MinEventTime());
    }
  }
  out_ring.clear();
  out_heap.clear();
  ASSERT_EQ(ring.DrainInto(&out_ring), heap.DrainInto(&out_heap));
  ASSERT_EQ(out_ring, out_heap);
}

TEST(ReorderBufferDifferential, RingMatchesReferenceHeapOnRandomSchedules) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RunDifferentialSchedule(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace streamq
