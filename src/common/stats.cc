#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace streamq {

void RunningMoments::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningMoments::Reset() { *this = RunningMoments(); }

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

ReservoirSample::ReservoirSample(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  STREAMQ_CHECK_GT(capacity, 0u);
  samples_.reserve(capacity);
}

void ReservoirSample::Add(double x) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  const int64_t j = rng_.NextInt(0, seen_ - 1);
  if (j < static_cast<int64_t>(capacity_)) {
    samples_[static_cast<size_t>(j)] = x;
  }
}

void ReservoirSample::Reset() {
  seen_ = 0;
  samples_.clear();
}

double ReservoirSample::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  return ExactQuantile(samples_, q);
}

P2Quantile::P2Quantile(double q) : q_(q) {
  STREAMQ_CHECK_GT(q, 0.0);
  STREAMQ_CHECK_LT(q, 1.0);
  Reset();
}

void P2Quantile::Reset() {
  count_ = 0;
  for (int i = 0; i < 5; ++i) {
    heights_[i] = 0.0;
    positions_[i] = static_cast<double>(i + 1);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  ++count_;

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust the three middle markers with parabolic interpolation.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Parabolic (P²) candidate.
      const double hp =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
        heights_[i] = hp;
      } else {
        // Linear fallback.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile over the few samples seen so far.
    std::vector<double> v(heights_, heights_ + count_);
    return ExactQuantile(std::move(v), q_);
  }
  return heights_[2];
}

SlidingWindowQuantile::SlidingWindowQuantile(size_t capacity)
    : capacity_(capacity) {
  STREAMQ_CHECK_GT(capacity, 0u);
  // Slots, links and counts are 32-bit.
  STREAMQ_CHECK_LT(static_cast<uint64_t>(capacity), uint64_t{1} << 32);
  block_of_.fill(kNoBlock);
}

uint32_t SlidingWindowQuantile::Key(double x) {
  constexpr uint64_t kMask = kOctaves * kSubBuckets - 1;
  return static_cast<uint32_t>((std::bit_cast<uint64_t>(x) >> 46) & kMask);
}

uint16_t SlidingWindowQuantile::AllocBlock(uint32_t octave) {
  uint16_t index;
  if (free_blocks_.empty()) {
    index = static_cast<uint16_t>(blocks_.size());
    blocks_.emplace_back();
  } else {
    index = free_blocks_.back();
    free_blocks_.pop_back();
  }
  occupied_[octave / 64] |= uint64_t{1} << (octave % 64);
  return index;
}

void SlidingWindowQuantile::FreeBlock(uint32_t octave) {
  // Every sub-count is zero again, so the block is ready for reuse.
  free_blocks_.push_back(block_of_[octave]);
  block_of_[octave] = kNoBlock;
  occupied_[octave / 64] &= ~(uint64_t{1} << (octave % 64));
}

// Link and Unlink run once each per Add; `inline` (with the pool's slow
// paths kept out of line) lets the compiler fold them into Add.
inline void SlidingWindowQuantile::Link(uint32_t slot) {
  const uint32_t key = Key(ring_[slot]);
  const uint32_t octave = key / kSubBuckets;
  uint16_t& index = block_of_[octave];
  if (index == kNoBlock) index = AllocBlock(octave);
  Block& block = blocks_[index];
  ++block.total;
  Bucket& bucket = block.bucket[key % kSubBuckets];
  if (bucket.count++ == 0) {
    bucket.head = slot;
  } else {
    next_[bucket.tail] = slot;
  }
  bucket.tail = slot;
}

inline void SlidingWindowQuantile::Unlink(uint32_t slot) {
  const uint32_t key = Key(ring_[slot]);
  const uint32_t octave = key / kSubBuckets;
  Block& block = blocks_[block_of_[octave]];
  Bucket& bucket = block.bucket[key % kSubBuckets];
  STREAMQ_DCHECK_EQ(bucket.head, slot);
  bucket.head = next_[slot];
  --bucket.count;
  if (--block.total == 0) FreeBlock(octave);
}

void SlidingWindowQuantile::Add(double x) {
  STREAMQ_DCHECK(x >= 0.0 && !std::signbit(x));
  ++seen_;
  uint32_t slot;
  if (ring_.size() < capacity_) {
    if (ring_.size() == ring_.capacity()) {
      const size_t grown =
          std::min(capacity_, std::max<size_t>(16, 2 * ring_.size()));
      ring_.reserve(grown);
      next_.reserve(grown);
    }
    slot = static_cast<uint32_t>(ring_.size());
    ring_.push_back(x);
    next_.push_back(0);
  } else {
    // The oldest slot of the ring is the oldest of its bucket too.
    slot = static_cast<uint32_t>(head_);
    Unlink(slot);
    ring_[slot] = x;
    if (++head_ == capacity_) head_ = 0;
  }
  Link(slot);
}

void SlidingWindowQuantile::Reset() {
  ring_.clear();
  next_.clear();
  head_ = 0;
  seen_ = 0;
  block_of_.fill(kNoBlock);
  occupied_ = {};
  blocks_.clear();
  free_blocks_.clear();
}

SlidingWindowQuantile::Position SlidingWindowQuantile::Locate(
    size_t rank) const {
  STREAMQ_CHECK_LT(rank, ring_.size());
  for (size_t word = 0; word < occupied_.size(); ++word) {
    for (uint64_t bits = occupied_[word]; bits != 0; bits &= bits - 1) {
      const size_t octave = word * 64 + std::countr_zero(bits);
      const Block& block = blocks_[block_of_[octave]];
      if (rank >= block.total) {
        rank -= block.total;
        continue;
      }
      for (const Bucket& bucket : block.bucket) {
        if (rank < bucket.count) {
          return {bucket.head, bucket.count, static_cast<uint32_t>(rank)};
        }
        rank -= bucket.count;
      }
    }
  }
  STREAMQ_LOG(Fatal) << "bucket counts out of step with the ring";
  return {};
}

double SlidingWindowQuantile::Quantile(double q) const {
  if (ring_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = ring_.size();
  const double pos = q * static_cast<double>(n - 1);
  const auto i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  const bool interpolate = !(frac <= 0.0 || i + 1 >= n);
  // Buckets partition the values in order, so order statistic i is the
  // a.rank-th smallest value of its bucket. Order statistic i+1 is the next
  // one in that bucket or else the smallest of the next non-empty bucket.
  // Neither depends on the order the chain yields the values in.
  const Position a = Locate(i);
  scratch_.resize(a.count);
  uint32_t slot = a.head;
  const double first = ring_[slot];
  bool tied = true;
  for (double& v : scratch_) {
    v = ring_[slot];
    tied &= v == first;
    slot = next_[slot];
  }
  // A bucket of equal values (the zero latenesses of a mostly in-order
  // stream fill one bucket with most of the window) needs no selection.
  auto nth = scratch_.begin() + static_cast<ptrdiff_t>(a.rank);
  if (!tied) std::nth_element(scratch_.begin(), nth, scratch_.end());
  const double av = *nth;
  if (!interpolate) return av;
  double bv = std::numeric_limits<double>::infinity();
  if (a.rank + 1 < a.count) {
    // nth_element leaves everything after `nth` >= av; the next order
    // statistic within the bucket is the minimum of that suffix.
    bv = tied ? av : *std::min_element(nth + 1, scratch_.end());
  } else {
    const Position b = Locate(i + 1);
    slot = b.head;
    for (uint32_t left = b.count; left > 0; --left) {
      bv = std::min(bv, ring_[slot]);
      slot = next_[slot];
    }
  }
  return av * (1.0 - frac) + bv * frac;
}

std::string DistributionSummary::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.2f sd=%.2f min=%.2f p50=%.2f p90=%.2f "
                "p95=%.2f p99=%.2f max=%.2f",
                static_cast<long long>(count), mean, stddev, min, p50, p90,
                p95, p99, max);
  return buf;
}

DistributionSummary Summarize(const std::vector<double>& values) {
  DistributionSummary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  RunningMoments m;
  for (double v : sorted) m.Add(v);
  s.count = m.count();
  s.mean = m.mean();
  s.stddev = m.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = InterpolateSorted(sorted, 0.50);
  s.p90 = InterpolateSorted(sorted, 0.90);
  s.p95 = InterpolateSorted(sorted, 0.95);
  s.p99 = InterpolateSorted(sorted, 0.99);
  return s;
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return InterpolateSorted(values, std::clamp(q, 0.0, 1.0));
}

namespace {

/// `v`, the value at rank j of the sorted concatenation of `runs`, except
/// that inside the run of zeros the sign is the one the order "every -0
/// before every +0" puts at j.
double CanonicalAt(std::span<const std::span<const double>> runs, size_t j,
                   double v) {
  if (v != 0.0) return v;
  ptrdiff_t below = 0;
  ptrdiff_t negative = 0;
  for (std::span<const double> r : runs) {
    const auto [lo, hi] = std::equal_range(r.begin(), r.end(), 0.0);
    below += lo - r.begin();
    negative += std::count_if(lo, hi, [](double z) { return std::signbit(z); });
  }
  return static_cast<ptrdiff_t>(j) - below < negative ? -0.0 : 0.0;
}

/// The part of one run a bisection has not ruled out yet, and where the
/// current pivot splits it.
struct ActiveRun {
  const double* lo;
  const double* hi;
  const double* below_pivot_end = nullptr;  // First value >= pivot.
  const double* pivot_end = nullptr;        // First value > pivot.
};

/// Value of rank `k` (0-based) in the union of the ascending runs
/// `act[0, n)`, all non-empty, k < their total size. Narrows `act` in
/// place. Each step splits every run at the middle value of the widest
/// one: a rank below the count of smaller values keeps the lower parts, a
/// rank past the count of values not greater keeps the upper parts, and a
/// rank in between is the pivot.
double SelectRank(ActiveRun* act, size_t n, size_t k) {
  while (true) {
    size_t w = 0;
    for (size_t r = 1; r < n; ++r) {
      if (act[r].hi - act[r].lo > act[w].hi - act[w].lo) w = r;
    }
    const double* mid = act[w].lo + (act[w].hi - act[w].lo) / 2;
    const double pivot = *mid;
    size_t less = 0;
    size_t not_greater = 0;
    for (size_t r = 0; r < n; ++r) {
      ActiveRun& a = act[r];
      a.below_pivot_end = std::lower_bound(a.lo, a.hi, pivot);
      a.pivot_end = std::upper_bound(a.below_pivot_end, a.hi, pivot);
      if (r == w) {
        // So already in an ascending run; a NaN breaks the order, and this
        // keeps the widest run shrinking regardless.
        a.below_pivot_end = std::min(a.below_pivot_end, mid);
        a.pivot_end = std::max(a.pivot_end, mid + 1);
      }
      less += static_cast<size_t>(a.below_pivot_end - a.lo);
      not_greater += static_cast<size_t>(a.pivot_end - a.lo);
    }
    if (k < less) {
      for (size_t r = 0; r < n; ++r) act[r].hi = act[r].below_pivot_end;
    } else if (k >= not_greater) {
      k -= not_greater;
      for (size_t r = 0; r < n; ++r) act[r].lo = act[r].pivot_end;
    } else {
      return pivot;
    }
    size_t live = 0;
    for (size_t r = 0; r < n; ++r) {
      if (act[r].lo != act[r].hi) act[live++] = act[r];
    }
    n = live;
  }
}

/// Run selections keep up to this many runs' state on the stack.
constexpr size_t kInlineRuns = 16;

/// One run of a cut-based selection: the values before `at` are on the
/// left of the cut, the rest on the right.
struct Cut {
  const double* begin;
  const double* at;
  const double* end;
};

/// The fallback of InterpolateRuns: the value of rank `k` of the non-empty
/// ascending runs `cuts[0, n)` into *x and, when `y` is set, that of rank
/// k + 1 into *y, by bisection from scratch. Every step strictly shrinks
/// the widest remaining run, so it returns even on runs a NaN left out of
/// order. Reads only the cuts' begin and end.
void BisectRanks(const Cut* cuts, size_t n, size_t k, double* x, double* y) {
  ActiveRun inline_act[kInlineRuns];
  std::vector<ActiveRun> heap_act;
  ActiveRun* act = inline_act;
  if (n > kInlineRuns) {
    heap_act.resize(n);
    act = heap_act.data();
  }
  for (size_t r = 0; r < n; ++r) act[r] = ActiveRun{cuts[r].begin, cuts[r].end};
  *x = SelectRank(act, n, k);
  if (y == nullptr) return;
  // Rank k + 1 holds x again while copies of x remain, else the smallest
  // value above x.
  size_t not_greater = 0;
  const double* next = nullptr;
  for (size_t r = 0; r < n; ++r) {
    const double* ub = std::upper_bound(cuts[r].begin, cuts[r].end, *x);
    not_greater += static_cast<size_t>(ub - cuts[r].begin);
    if (ub != cuts[r].end && (next == nullptr || *ub < *next)) next = ub;
  }
  *y = (k + 1 < not_greater || next == nullptr) ? *x : *next;
}

/// The cut whose first right value is the smallest, or n when every right
/// side is empty. A NaN is never smaller, so it never wins a comparison.
size_t MinRight(const Cut* cuts, size_t n) {
  size_t b = n;
  for (size_t r = 0; r < n; ++r) {
    if (cuts[r].at != cuts[r].end && (b == n || *cuts[r].at < *cuts[b].at)) {
      b = r;
    }
  }
  return b;
}

/// The cut whose last left value is the largest, or n when every left side
/// is empty.
size_t MaxLeft(const Cut* cuts, size_t n) {
  size_t a = n;
  for (size_t r = 0; r < n; ++r) {
    if (cuts[r].at != cuts[r].begin &&
        (a == n || cuts[r].at[-1] > cuts[a].at[-1])) {
      a = r;
    }
  }
  return a;
}

/// Run values a cut-based selection may read in its scans before it gives
/// up for bisection. Every MinRight or MaxLeft scan reads one value per
/// run, so the budget in scans shrinks as runs are added: 128 scans on 5
/// runs, where proportional cuts over runs of one distribution take a few
/// dozen and runs with disjoint value ranges hundreds.
constexpr ptrdiff_t kCutReads = 640;

/// Scans a hinted selection may take on any number of runs: a revision
/// (the hint is the answer before one more value arrived) takes a few.
constexpr ptrdiff_t kHintedScans = 8;

/// Scans proportional cuts need on up to 10 runs. Without a hint, a
/// smaller budget (more than 10 runs) would run out all but always, so
/// those selections bisect at once.
constexpr ptrdiff_t kProportionalScans = 64;

/// The value of rank `k` of the non-empty ascending runs `cuts[0, n)` (of
/// `total` values, k < total) into *x and, when `y` is set, that of rank
/// k + 1 into *y. Places the cuts so that k values are left of them: at
/// the lower bound of `hint` in every run, or rank-proportionally when the
/// hint is NaN. Then moves values across until every left value is <= every
/// right value: the smallest right value is rank k. Returns false, with
/// *x and *y unset, when that takes more scans than the budget allows.
bool SelectByCuts(Cut* cuts, size_t n, size_t total, size_t k, double hint,
                  double* x, double* y) {
  const bool hinted = !std::isnan(hint);
  ptrdiff_t scans = kCutReads / static_cast<ptrdiff_t>(n);
  if (hinted) {
    scans = std::max(scans, kHintedScans);
  } else if (scans < kProportionalScans) {
    return false;
  }
  size_t left = 0;
  for (size_t r = 0; r < n; ++r) {
    Cut& c = cuts[r];
    const auto size = static_cast<size_t>(c.end - c.begin);
    c.at = hinted ? std::lower_bound(c.begin, c.end, hint)
                  : c.begin + size * k / total;
    left += static_cast<size_t>(c.at - c.begin);
  }
  // Moving the smallest right value (or the largest left one) across keeps
  // an ordered cut ordered. A step moves all its copies within the run, so
  // a tie costs one scan.
  while (left < k) {
    if (--scans < 0) return false;
    Cut& c = cuts[MinRight(cuts, n)];
    const double v = *c.at;
    do {
      ++c.at;
      ++left;
    } while (left < k && c.at != c.end && *c.at == v);
  }
  while (left > k) {
    if (--scans < 0) return false;
    Cut& c = cuts[MaxLeft(cuts, n)];
    const double v = c.at[-1];
    do {
      --c.at;
      --left;
    } while (left > k && c.at != c.begin && c.at[-1] == v);
  }
  // Swap the largest left value with the smallest right one while they are
  // out of order. Each swap puts two values on their own side and costs
  // two scans.
  size_t b = MinRight(cuts, n);
  for (size_t a = MaxLeft(cuts, n); a != n && cuts[a].at[-1] > *cuts[b].at;
       a = MaxLeft(cuts, n)) {
    if ((scans -= 2) < 0) return false;
    --cuts[a].at;
    ++cuts[b].at;
    b = MinRight(cuts, n);
  }
  *x = *cuts[b].at;
  if (y != nullptr) {
    ++cuts[b].at;
    *y = *cuts[MinRight(cuts, n)].at;
  }
  return true;
}

}  // namespace

double InterpolateSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  const std::span<const double> runs[] = {sorted};
  const size_t last = sorted.size() - 1;
  if (i + 1 >= sorted.size()) return CanonicalAt(runs, last, sorted[last]);
  return CanonicalAt(runs, i, sorted[i]) * (1.0 - frac) +
         CanonicalAt(runs, i + 1, sorted[i + 1]) * frac;
}

double InterpolateRuns(std::span<const std::span<const double>> runs,
                       double q, double hint) {
  size_t total = 0;
  for (std::span<const double> r : runs) total += r.size();
  if (total == 0) return 0.0;
  const double pos = q * static_cast<double>(total - 1);
  const auto i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  const bool last = i + 1 >= total;

  Cut inline_cuts[kInlineRuns];
  std::vector<Cut> heap_cuts;
  Cut* cuts = inline_cuts;
  if (runs.size() > kInlineRuns) {
    heap_cuts.resize(runs.size());
    cuts = heap_cuts.data();
  }
  size_t n = 0;
  for (std::span<const double> r : runs) {
    if (!r.empty()) cuts[n++] = Cut{r.data(), r.data(), r.data() + r.size()};
  }
  const size_t k = last ? total - 1 : i;
  double x = 0.0;
  double y = 0.0;
  double* next = last ? nullptr : &y;
  if (!SelectByCuts(cuts, n, total, k, hint, &x, next)) {
    BisectRanks(cuts, n, k, &x, next);
  }
  if (last) return CanonicalAt(runs, k, x);
  return CanonicalAt(runs, i, x) * (1.0 - frac) +
         CanonicalAt(runs, i + 1, y) * frac;
}

}  // namespace streamq
