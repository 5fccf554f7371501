#include "ledger.h"

#include <dirent.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = samples.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

size_t SamplesBeyond(size_t n, double pct) {
  // Round before the ceiling so 99.9% of 1000 is exactly 999, not 999.0001.
  const double at =
      std::round(static_cast<double>(n) * pct / 100.0 * 1e6) / 1e6;
  const size_t at_or_below = static_cast<size_t>(std::ceil(at));
  return n > at_or_below ? n - at_or_below : 0;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double pct : kLadder) {
    if (SamplesBeyond(n, pct) >= min_beyond) return pct;
  }
  return 0.0;
}

uint32_t Tracer::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  // Children grouped by parent via counting sort, then each group sorted by
  // start so covered time is one sweep over merged intervals.
  std::vector<size_t> offset(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) ++offset[static_cast<size_t>(s.parent) + 1];
  }
  for (size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<size_t> child(offset[n]);
  std::vector<size_t> fill(offset.begin(), offset.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      child[fill[static_cast<size_t>(spans[i].parent)]++] = i;
    }
  }

  std::vector<int64_t> self(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const Span& parent = spans[p];
    const int64_t duration = parent.end_ns - parent.start_ns;
    auto first = child.begin() + static_cast<ptrdiff_t>(offset[p]);
    auto last = child.begin() + static_cast<ptrdiff_t>(offset[p + 1]);
    std::sort(first, last, [&spans](size_t a, size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (auto it = first; it != last; ++it) {
      const int64_t b = std::max(spans[*it].start_ns, parent.start_ns);
      const int64_t e = std::min(spans[*it].end_ns, parent.end_ns);
      if (e <= b) continue;
      if (in_run && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (in_run) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      in_run = true;
    }
    if (in_run) covered += run_end - run_begin;
    self[p] = duration - covered;
  }
  return self;
}

std::vector<int64_t> SelfTimeByName(const std::vector<Span>& spans,
                                    size_t num_names) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<int64_t> totals(num_names, 0);
  for (size_t i = 0; i < spans.size(); ++i) totals[spans[i].name] += self[i];
  return totals;
}

bool WriteSpans(const std::string& path, const Tracer& tracer,
                size_t max_spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span>& spans = tracer.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "index,name,parent,start_ns,end_ns\n";
  const size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << i << ',' << tracer.name(s.name) << ',' << s.parent << ','
        << (s.start_ns - origin) << ',' << (s.end_ns - origin) << '\n';
  }
  return static_cast<bool>(out);
}

void OpenLoopAccount::Merge(const OpenLoopAccount& other) {
  latency_us_.insert(latency_us_.end(), other.latency_us_.begin(),
                     other.latency_us_.end());
  lag_ms_.insert(lag_ms_.end(), other.lag_ms_.begin(), other.lag_ms_.end());
}

namespace {

/// Thread ids of this process (/proc/self/task).
std::vector<pid_t> ProcessThreads() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    if (tid > 0) tids.push_back(static_cast<pid_t>(tid));
  }
  closedir(dir);
  return tids;
}

}  // namespace

CpuWindow::CpuWindow(int64_t turn, size_t count, bool all_threads) {
  cpu_set_t own;
  CPU_ZERO(&own);
  if (sched_getaffinity(0, sizeof(own), &own) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &own)) cpus.push_back(cpu);
  }
  if (count >= cpus.size()) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  for (size_t i = 0; i < count; ++i) {
    CPU_SET(cpus[(static_cast<size_t>(turn) + i) % cpus.size()], &window);
  }
  const std::vector<pid_t> tids =
      all_threads ? ProcessThreads() : std::vector<pid_t>{0};
  for (pid_t tid : tids) {
    Saved saved{tid, {}};
    // A thread that exits meanwhile just drops out.
    if (sched_getaffinity(tid, sizeof(saved.cpus), &saved.cpus) == 0 &&
        sched_setaffinity(tid, sizeof(window), &window) == 0) {
      saved_.push_back(saved);
    }
  }
}

CpuWindow::~CpuWindow() {
  for (const Saved& s : saved_) {
    sched_setaffinity(s.tid, sizeof(s.cpus), &s.cpus);
  }
}

int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

void HeapSampler::Reset() {
  baseline_ = HeapInUseBytes();
  peak_ = baseline_;
}

void HeapSampler::Sample() { peak_ = std::max(peak_, HeapInUseBytes()); }

double HeapSampler::AddedMiB() const {
  return static_cast<double>(peak_ - baseline_) / (1024.0 * 1024.0);
}

}  // namespace perfbench
