#ifndef STREAMQ_COMMON_STATS_H_
#define STREAMQ_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace streamq {

/// Welford's online mean/variance accumulator.
class RunningMoments {
 public:
  void Add(double x);

  /// Merges another accumulator (parallel-friendly Chan et al. update).
  void Merge(const RunningMoments& other);

  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance. Zero for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-capacity uniform reservoir sample (Vitter's algorithm R).
class ReservoirSample {
 public:
  ReservoirSample(size_t capacity, uint64_t seed);

  void Add(double x);
  void Reset();

  int64_t seen() const { return seen_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Empirical quantile of the reservoir, q in [0, 1]. Returns 0 if empty.
  double Quantile(double q) const;

 private:
  size_t capacity_;
  Rng rng_;
  int64_t seen_ = 0;
  std::vector<double> samples_;
};

/// P² (Jain & Chlamtac) single-quantile streaming estimator: O(1) space,
/// no samples retained. Used where memory matters more than exactness.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.95.
  explicit P2Quantile(double q);

  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  /// Current estimate; exact while count < 5.
  double value() const;

 private:
  double q_;
  int64_t count_ = 0;
  double heights_[5];
  double positions_[5];
  double desired_[5];
  double increments_[5];
};

/// Sliding-window quantile tracker over the last `capacity` samples.
/// This is the delay sketch the quality-driven buffer interrogates; window
/// semantics (recent samples only) are what let it follow non-stationary
/// delay distributions.
///
/// Exact: Quantile() returns bit for bit what sorting the window and
/// interpolating between order statistics i and i+1 would. The domain is
/// x >= +0 (STREAMQ_DCHECK; every caller passes an int64 lateness or 0.0),
/// where the top bits of the IEEE-754 pattern order the values. A FIFO
/// ring holds the raw values; counts per log-linear bucket (64 sub-buckets
/// per octave, pooled blocks for occupied octaves only) let a query walk to
/// the bucket holding the rank. A 4-byte link per ring slot threads each
/// bucket's slots into a FIFO chain in arrival order. The slot Add evicts
/// is the ring's oldest, hence the head of its bucket's chain, so Add and
/// its eviction are O(1), and a query reads one or two chains, never the
/// whole ring. Links are slot indices, so they survive the ring's growth.
/// Capacity must be below 2^32.
class SlidingWindowQuantile {
 public:
  explicit SlidingWindowQuantile(size_t capacity);

  void Add(double x);
  void Reset();

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  int64_t seen() const { return seen_; }

  /// Empirical quantile of the current window, q in [0, 1].
  /// Returns 0 if the window is empty. Walks the occupied buckets' counts
  /// to the rank, then selects among the values of one bucket's chain (no
  /// selection when they are all equal) and takes the minimum of the next
  /// bucket's chain when interpolating, so the cost follows the bucket
  /// size, not the window size.
  double Quantile(double q) const;

 private:
  static constexpr size_t kOctaves = 2048;  // 11 exponent bits
  static constexpr size_t kSubBuckets = 64;  // top 6 mantissa bits
  static constexpr uint16_t kNoBlock = UINT16_MAX;

  /// One sub-bucket: its count and its chain's oldest and newest ring slot.
  /// head and tail mean something only while count is non-zero (a reused
  /// block keeps stale ones).
  struct Bucket {
    uint32_t count = 0;
    uint32_t head = 0;
    uint32_t tail = 0;
  };

  /// The sub-buckets of one occupied octave.
  struct Block {
    uint32_t total = 0;
    Bucket bucket[kSubBuckets] = {};
  };

  /// Where rank r of the window lives: its bucket's chain and the rank
  /// inside it.
  struct Position {
    uint32_t head = 0;   // oldest slot of the bucket
    uint32_t count = 0;  // values in the bucket
    uint32_t rank = 0;
  };

  /// Bucket key: exponent and top 6 mantissa bits (sign dropped, so an
  /// out-of-domain value lands in some bucket rather than out of range;
  /// Link and Unlink compute the same key, so the chains stay consistent).
  static uint32_t Key(double x);

  /// Takes a pooled block for an octave that just became occupied, and
  /// returns the block of one that just emptied to the pool.
  uint16_t AllocBlock(uint32_t octave);
  void FreeBlock(uint32_t octave);

  /// Appends `slot` to the tail of its value's bucket chain.
  inline void Link(uint32_t slot);
  /// Pops `slot`, which must be its bucket's head, from that chain.
  inline void Unlink(uint32_t slot);

  Position Locate(size_t rank) const;

  size_t capacity_;
  /// The window in arrival order; once full, head_ is the oldest slot.
  std::vector<double> ring_;
  /// next_[slot]: the next-newer slot of the same bucket (stale at a tail).
  std::vector<uint32_t> next_;
  size_t head_ = 0;
  int64_t seen_ = 0;

  /// Octave -> index into blocks_, kNoBlock when the octave is empty.
  std::array<uint16_t, kOctaves> block_of_;
  std::array<uint64_t, kOctaves / 64> occupied_ = {};
  std::vector<Block> blocks_;
  std::vector<uint16_t> free_blocks_;

  /// Reused by Quantile() to avoid per-call allocation.
  mutable std::vector<double> scratch_;
};

/// Summary of a latency/error series for report tables.
struct DistributionSummary {
  int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  std::string ToString() const;
};

/// Computes exact percentiles from a full sample vector (sorts a copy).
DistributionSummary Summarize(const std::vector<double>& values);

/// Exact quantile of a sample vector (sorts a copy). q in [0, 1].
double ExactQuantile(std::vector<double> values, double q);

/// Linearly interpolated q-quantile of an ascending range, q in [0, 1] (the
/// formula ExactQuantile, Summarize and the quantile aggregate share).
/// A sort leaves -0 and +0 in no particular order; they are read as if
/// every -0 came first, so the result depends on the values alone, not on
/// how the range was sorted. Returns 0 for an empty range.
double InterpolateSorted(std::span<const double> sorted, double q);

/// InterpolateSorted over the sorted concatenation of ascending `runs`,
/// without merging or copying them. Bit for bit the same result, zeros
/// included (every -0 read before every +0). Returns 0 when all runs are
/// empty.
///
/// The two order statistics it reads are found by cuts: one position per
/// run, the cuts together leaving the lower rank's count of values on their
/// left. The cuts start at the lower bound of `hint` in every run, or
/// rank-proportionally when `hint` is NaN, and then move value by value
/// until every left value is <= every right value; the lower statistic is
/// the smallest right value, the next one the smallest after it. A hint
/// near the answer (the value the same window selected before one more
/// value arrived) takes a step or two; any hint, even +-inf, gives the same
/// result. The cuts have a budget of values read, so each step's scan
/// over the runs counts, and the budget shrinks as runs are added (a hinted
/// selection keeps a few scans on any number of runs). When the cuts run
/// out of it (runs with disjoint value ranges and no hint), or when there
/// is no hint and more than 10 runs, selection bisects instead: a pivot
/// from the widest remaining run, two binary searches per run and step.
/// A NaN in a run gives an unspecified value but still returns: the
/// budget bounds the cuts, and every bisection step strictly shrinks the
/// widest remaining run.
double InterpolateRuns(std::span<const std::span<const double>> runs,
                       double q,
                       double hint = std::numeric_limits<double>::quiet_NaN());

}  // namespace streamq

#endif  // STREAMQ_COMMON_STATS_H_
