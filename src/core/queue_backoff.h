#ifndef STREAMQ_CORE_QUEUE_BACKOFF_H_
#define STREAMQ_CORE_QUEUE_BACKOFF_H_

#include <chrono>
#include <cstddef>
#include <thread>

#include "common/logging.h"

namespace streamq {

/// Escalating wait loop shared by the bounded queues (SPSC and MPSC): spin
/// on-core for short waits, yield for medium ones, and sleep once the peer
/// has clearly stalled — a stalled peer must not burn a core at 100%.
struct QueueBackoff {
  static constexpr int kSpinLimit = 64;

  int spins = 0;
  void Pause() {
    ++spins;
    if (spins < kSpinLimit) return;  // On-core while the wait is short.
    if (spins < 4096) {
      std::this_thread::yield();
      return;
    }
    // The peer has been unresponsive for thousands of iterations: stop
    // burning the core. Short naps first (a GC-less pipeline usually
    // resumes fast), longer ones once the stall is clearly persistent.
    std::this_thread::sleep_for(
        std::chrono::microseconds(spins < 65536 ? 50 : 500));
  }
};

/// Spins with escalating backoff until `done()` returns true — the shape of
/// the keyed driver's bounded wait for a steal handoff acknowledgement. The
/// predicate must become true through another thread's progress, which the
/// backoff never blocks.
template <typename Pred>
inline void BackoffUntil(Pred&& done) {
  QueueBackoff backoff;
  while (!done()) backoff.Pause();
}

/// Capacity helper for the ring queues: power-of-two sizes make index
/// wrapping a mask.
inline size_t RoundUpPow2(size_t n) {
  STREAMQ_CHECK_GT(n, 0u);
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace streamq

#endif  // STREAMQ_CORE_QUEUE_BACKOFF_H_
