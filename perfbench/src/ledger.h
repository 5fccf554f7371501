#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Driver-side bookkeeping of the streamq benchmark: wall clock, sample
// statistics, in-memory trace spans with self-time attribution, open-loop
// due-time accounting, and resident-memory sampling. Nothing here calls into
// streamq; the workloads use it to time calls into the library from outside.

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile, q in [0, 1]: the smallest sample with at least
/// q * n samples at or below it. 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Mean of the middle half: the samples left after dropping the lowest and
/// the highest floor(n / 4). 0 for an empty sample. Unlike the median, it
/// moves gradually when a sample drawn from two modes shifts between them.
double InterquartileMean(std::vector<double> samples);

/// Samples strictly above the nearest-rank `pct`-th percentile of n samples
/// (ties aside): n - ceil(n * pct / 100).
size_t SamplesBeyond(size_t n, double pct);

/// The highest of 50, 90, 99, 99.9, 99.99 that leaves at least `min_beyond`
/// samples beyond it, or 0 when even the median does not.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

// ------------------------------------------------------------------ spans

/// One timed call into a layer: which layer, when, and the span that was
/// open when it began (its cause). parent == -1 for a top-level span.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder. Spans stay in memory until the run ends
/// (WriteSpans); nesting follows call order, so a span begun while another
/// is open becomes its child.
class Tracer {
 public:
  uint32_t Intern(std::string_view name);
  const std::string& name(uint32_t id) const { return names_[id]; }
  size_t num_names() const { return names_.size(); }

  int32_t Begin(uint32_t name) {
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, open_, NowNs(), 0});
    open_ = index;
    return index;
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_ = -1;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, uint32_t name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, children
/// clipped to the parent's interval).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per span name (indexed by name id).
std::vector<int64_t> SelfTimeByName(const std::vector<Span>& spans,
                                    size_t num_names);

/// Writes spans as CSV (index,name,parent,start_ns,end_ns, times relative to
/// the first span), at most `max_spans` of them. Returns false on I/O error.
bool WriteSpans(const std::string& path, const Tracer& tracer,
                size_t max_spans);

// -------------------------------------------------------------- open loop

/// Fixed-rate send schedule: request i is due at start + i * interval.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  double interval_ns = 0.0;

  int64_t DueNs(int64_t i) const {
    return start_ns +
           static_cast<int64_t>(static_cast<double>(i) * interval_ns);
  }
};

/// Latency accounting for an open loop: each request is timed from when it
/// was due, not from when it was sent, so a stall also charges the wait it
/// imposes on the requests queued behind it; how late the generator ran is
/// kept apart as send lag.
class OpenLoopAccount {
 public:
  void Record(int64_t due_ns, int64_t sent_ns, int64_t done_ns) {
    latency_us_.push_back(static_cast<double>(done_ns - due_ns) / 1e3);
    lag_ms_.push_back(static_cast<double>(sent_ns - due_ns) / 1e6);
  }
  void Merge(const OpenLoopAccount& other);

  const std::vector<double>& latency_us() const { return latency_us_; }
  const std::vector<double>& send_lag_ms() const { return lag_ms_; }

 private:
  std::vector<double> latency_us_;
  std::vector<double> lag_ms_;
};

// ------------------------------------------------------------------- cpus

/// While alive, confines the calling thread, and the threads it starts, to
/// `count` consecutive CPUs of its affinity set, starting at the `turn`-th
/// (cyclically). With `all_threads`, every thread the process already runs
/// (a server's accept and connection threads, say) is confined too.
/// Successive runs with turn = 0, 1, 2, ... each sample another set of
/// CPUs: on a shared host one virtual CPU can run markedly slower than
/// another for seconds at a time, and a run left on one CPU measures that
/// CPU. No-op when `count` is not below the set's size.
class CpuWindow {
 public:
  CpuWindow(int64_t turn, size_t count, bool all_threads = false);
  ~CpuWindow();
  CpuWindow(const CpuWindow&) = delete;
  CpuWindow& operator=(const CpuWindow&) = delete;

 private:
  struct Saved {
    pid_t tid;  // 0 = the calling thread.
    cpu_set_t cpus;
  };
  std::vector<Saved> saved_;
};

// ----------------------------------------------------------------- memory

/// Heap bytes this process has in use (mallinfo2 over every arena: chunks
/// in use plus mmapped blocks). Unlike the resident set, it does not depend
/// on which freed pages the allocator happened to hand back, so a
/// single-threaded run repeats it exactly.
int64_t HeapInUseBytes();

/// Tracks the largest heap in use seen since Reset, sampled at the points
/// the caller chooses.
class HeapSampler {
 public:
  void Reset();
  void Sample();
  /// Peak minus the baseline taken at Reset, in MiB.
  double AddedMiB() const;

 private:
  int64_t baseline_ = 0;
  int64_t peak_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
