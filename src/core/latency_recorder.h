#ifndef STREAMQ_CORE_LATENCY_RECORDER_H_
#define STREAMQ_CORE_LATENCY_RECORDER_H_

#include <algorithm>
#include <mutex>
#include <vector>

#include "core/pipeline_observer.h"

namespace streamq {

/// Records every released tuple's buffering latency, as handlers report it
/// through PipelineObserver::OnBufferingLatency: the series that latency
/// percentiles are computed from (handlers keep only the moments). Locked,
/// so one recorder can observe a parallel runner's workers; their
/// interleaving is not deterministic, so compare such series with sorted().
class LatencyRecorder : public PipelineObserver {
 public:
  void OnBufferingLatency(double latency_us) override {
    std::lock_guard<std::mutex> lock(mu_);
    series_.push_back(latency_us);
  }

  /// The series in callback order.
  std::vector<double> series() const {
    std::lock_guard<std::mutex> lock(mu_);
    return series_;
  }

  /// The series in ascending order.
  std::vector<double> sorted() const {
    std::vector<double> out = series();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> series_;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_LATENCY_RECORDER_H_
