// Tests of the benchmark's own bookkeeping: span self-time subtraction, the
// "highest percentile with at least ten samples beyond it" rule, open-loop
// due-time accounting on a synthetic schedule, CPU-window rotation, and heap
// sampling.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ledger.h"

namespace perfbench {
namespace {

TEST(SelfTimesTest, SubtractsChildrenFromParent) {
  // disorder [0,100) with window.fold [10,30) and window.fire [50,90); the
  // fire span has a sink child [60,70).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 0, 50, 90}, {3, 2, 60, 70}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40 - 10);
  EXPECT_EQ(self[3], 10);
  // Self times of a properly nested tree add up to the roots' durations.
  int64_t sum = 0;
  for (int64_t s : self) sum += s;
  EXPECT_EQ(sum, 100);
}

TEST(SelfTimesTest, CountsOverlappingChildrenOnceAndClipsToParent) {
  const std::vector<Span> spans = {
      {0, -1, 100, 200},
      {1, 0, 110, 150},  // Overlaps the next child on [130,150).
      {1, 0, 130, 160},
      {1, 0, 190, 230},  // Runs past the parent's end: only [190,200) counts.
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfTimesTest, SelfTimeByNameSumsOverSpans) {
  Tracer tracer;
  const uint32_t a = tracer.Intern("a");
  const uint32_t b = tracer.Intern("b");
  EXPECT_EQ(tracer.Intern("a"), a);
  const std::vector<Span> spans = {
      {a, -1, 0, 50}, {b, 0, 0, 10}, {b, 0, 20, 25}, {a, -1, 60, 70}};
  const std::vector<int64_t> totals = SelfTimeByName(spans, 2);
  EXPECT_EQ(totals[a], 60 - 15);
  EXPECT_EQ(totals[b], 15);
}

TEST(SelfTimesTest, TracerNestsSpansInCallOrder) {
  Tracer tracer;
  const uint32_t outer = tracer.Intern("outer");
  const uint32_t inner = tracer.Intern("inner");
  {
    Scope o(&tracer, outer);
    { Scope i(&tracer, inner); }
    { Scope i(&tracer, inner); }
  }
  { Scope o(&tracer, outer); }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(SamplesBeyond(10, 50.0), 5u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.50), 50.0);
  EXPECT_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(PercentileTest, InterquartileMeanAveragesTheMiddleHalf) {
  // Two modes, four samples each: the median jumps to a mode's edge, the
  // middle half's mean sits between them.
  EXPECT_DOUBLE_EQ(
      InterquartileMean({400.0, 1.0, 300.0, 2.0, 200.0, 3.0, 100.0, 4.0}),
      (3.0 + 4.0 + 100.0 + 200.0) / 4.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({5.0, 7.0, 6.0}), 6.0);
  EXPECT_EQ(InterquartileMean({}), 0.0);
}

TEST(OpenLoopTest, DueTimesFollowTheSchedule) {
  const OpenLoopSchedule schedule{1000, 2.5};
  EXPECT_EQ(schedule.DueNs(0), 1000);
  EXPECT_EQ(schedule.DueNs(4), 1010);
}

TEST(OpenLoopTest, StallChargesTheRequestsQueuedBehindIt) {
  // A request is due every 100 ns and takes 10 ns, except request 2, which
  // stalls for 350 ns. A sender that waits for each reply sends request i
  // at max(due_i, previous reply).
  const OpenLoopSchedule schedule{0, 100.0};
  const std::vector<int64_t> service = {10, 10, 350, 10, 10, 10, 10};
  OpenLoopAccount account;
  int64_t previous_done = 0;
  for (size_t i = 0; i < service.size(); ++i) {
    const int64_t due = schedule.DueNs(static_cast<int64_t>(i));
    const int64_t sent = std::max(due, previous_done);
    const int64_t done = sent + service[i];
    account.Record(due, sent, done);
    previous_done = done;
  }
  // Request 2 due at 200 finishes at 550; request 3 (due 300) goes out at
  // 550 and is done at 560: 260 ns late from its due time, though its own
  // service took 10. Requests 4 and 5 still queue behind it; request 6
  // (due 600) is back on schedule.
  const std::vector<double>& latency_us = account.latency_us();
  ASSERT_EQ(latency_us.size(), 7u);
  EXPECT_DOUBLE_EQ(latency_us[0], 0.010);
  EXPECT_DOUBLE_EQ(latency_us[2], 0.350);
  EXPECT_DOUBLE_EQ(latency_us[3], 0.260);
  EXPECT_DOUBLE_EQ(latency_us[4], 0.170);
  EXPECT_DOUBLE_EQ(latency_us[5], 0.080);
  EXPECT_DOUBLE_EQ(latency_us[6], 0.010);
  const std::vector<double>& lag_ms = account.send_lag_ms();
  EXPECT_DOUBLE_EQ(lag_ms[2], 0.0);
  EXPECT_DOUBLE_EQ(lag_ms[3], 250e-6);
  EXPECT_DOUBLE_EQ(lag_ms[4], 160e-6);
  EXPECT_DOUBLE_EQ(lag_ms[5], 70e-6);
  EXPECT_DOUBLE_EQ(lag_ms[6], 0.0);

  OpenLoopAccount merged;
  merged.Merge(account);
  merged.Merge(account);
  EXPECT_EQ(merged.latency_us().size(), 14u);
}

int AllowedCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

TEST(CpuWindowTest, ConfinesThenRestoresAndRotates) {
  const int cpus = AllowedCpuCount();
  if (cpus < 2) GTEST_SKIP() << "needs at least two CPUs";
  {
    const CpuWindow window(0, 1);
    EXPECT_EQ(AllowedCpuCount(), 1);
  }
  EXPECT_EQ(AllowedCpuCount(), cpus);
  // Successive turns land on different CPUs, wrapping at the set's size.
  cpu_set_t first;
  cpu_set_t second;
  cpu_set_t wrapped;
  {
    const CpuWindow window(0, 1);
    sched_getaffinity(0, sizeof(first), &first);
  }
  {
    const CpuWindow window(1, 1);
    sched_getaffinity(0, sizeof(second), &second);
  }
  {
    const CpuWindow window(cpus, 1);
    sched_getaffinity(0, sizeof(wrapped), &wrapped);
  }
  EXPECT_FALSE(CPU_EQUAL(&first, &second));
  EXPECT_TRUE(CPU_EQUAL(&first, &wrapped));
  // A window as large as the set leaves the affinity alone.
  {
    const CpuWindow window(1, static_cast<size_t>(cpus));
    EXPECT_EQ(AllowedCpuCount(), cpus);
  }
}

int ThreadCpuCount(pid_t tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

TEST(CpuWindowTest, AllThreadsConfinesThreadsAlreadyRunning) {
  const int cpus = AllowedCpuCount();
  if (cpus < 2) GTEST_SKIP() << "needs at least two CPUs";
  std::atomic<pid_t> tid{0};
  std::atomic<bool> done{false};
  std::thread other([&tid, &done] {
    tid = static_cast<pid_t>(syscall(SYS_gettid));
    while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (tid == 0) std::this_thread::yield();
  {
    const CpuWindow window(0, 1);
    EXPECT_EQ(ThreadCpuCount(tid), cpus);
  }
  {
    const CpuWindow window(0, 1, /*all_threads=*/true);
    EXPECT_EQ(AllowedCpuCount(), 1);
    EXPECT_EQ(ThreadCpuCount(tid), 1);
  }
  EXPECT_EQ(AllowedCpuCount(), cpus);
  EXPECT_EQ(ThreadCpuCount(tid), cpus);
  done = true;
  other.join();
}

TEST(HeapSamplerTest, PeakCountsWhatWasLiveAtASample) {
  HeapSampler heap;
  heap.Reset();
  {
    std::vector<char> block(8 << 20, 1);
    heap.Sample();
    EXPECT_EQ(block[block.size() / 2], 1);
  }
  heap.Sample();  // After the free: the peak stays.
  EXPECT_GE(heap.AddedMiB(), 8.0);
  EXPECT_LT(heap.AddedMiB(), 9.0);
  heap.Reset();
  EXPECT_LT(heap.AddedMiB(), 0.5);
}

}  // namespace
}  // namespace perfbench
