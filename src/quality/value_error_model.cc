#include "quality/value_error_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "quality/oracle.h"

namespace streamq {

std::string GammaFit::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "GammaFit{gamma=%.3f rms=%.4f points=%zu}",
                gamma, rms_residual, curve.size());
  return buf;
}

namespace {

/// Mean value quality when each tuple survives with probability `coverage`.
double ProbeCoverage(const std::vector<Event>& events,
                     const WindowSpec& window, const AggregateSpec& aggregate,
                     const OracleEvaluator& oracle, double coverage,
                     int trials, Rng* rng) {
  double total_quality = 0.0;
  int64_t total_windows = 0;
  std::vector<Event> thinned;
  for (int trial = 0; trial < trials; ++trial) {
    thinned.clear();
    for (const Event& e : events) {
      if (rng->NextBool(coverage)) thinned.push_back(e);
    }
    const OracleEvaluator thinned_results(thinned, window, aggregate);
    for (const WindowResult& truth : oracle.results()) {
      const WindowResult* r =
          thinned_results.Lookup(truth.bounds.start, truth.key);
      double quality = 0.0;  // Fully-missed window.
      if (r != nullptr) {
        const double produced = r->value;
        if (std::isnan(truth.value) && std::isnan(produced)) {
          quality = 1.0;
        } else if (std::isnan(produced) || std::isnan(truth.value)) {
          quality = 0.0;
        } else {
          const double denom = std::max(std::fabs(truth.value), 1e-9);
          quality =
              1.0 - std::min(1.0, std::fabs(produced - truth.value) / denom);
        }
      }
      total_quality += quality;
      ++total_windows;
    }
  }
  return total_windows > 0 ? total_quality / static_cast<double>(total_windows)
                           : 1.0;
}

}  // namespace

GammaFit FitQualityGamma(const std::vector<Event>& events,
                         const WindowSpec& window,
                         const AggregateSpec& aggregate,
                         const GammaFitOptions& options) {
  STREAMQ_CHECK(!options.coverage_grid.empty());
  STREAMQ_CHECK_GT(options.trials, 0);

  const OracleEvaluator oracle(events, window, aggregate);
  Rng rng(options.seed);

  GammaFit fit;
  double num = 0.0, den = 0.0;
  for (double c : options.coverage_grid) {
    STREAMQ_CHECK_GT(c, 0.0);
    STREAMQ_CHECK_LE(c, 1.0);
    const double q = ProbeCoverage(events, window, aggregate, oracle, c,
                                   options.trials, &rng);
    fit.curve.push_back({c, q});
    if (c < 1.0 && q > 1e-6) {
      const double lc = std::log(c);
      const double lq = std::log(q);
      num += lc * lq;
      den += lc * lc;
    }
  }
  fit.gamma = den > 0.0 ? std::clamp(num / den, 0.05, 5.0) : 1.0;

  // Residual diagnostics.
  double sq = 0.0;
  int n = 0;
  for (const CoverageQualityPoint& p : fit.curve) {
    if (p.coverage < 1.0 && p.mean_quality > 1e-6) {
      const double resid =
          std::log(p.mean_quality) - fit.gamma * std::log(p.coverage);
      sq += resid * resid;
      ++n;
    }
  }
  fit.rms_residual = n > 0 ? std::sqrt(sq / n) : 0.0;
  return fit;
}

}  // namespace streamq
