#ifndef STREAMQ_CONTROL_QUALITY_MODEL_H_
#define STREAMQ_CONTROL_QUALITY_MODEL_H_

#include <algorithm>
#include <memory>
#include <string_view>

namespace streamq {

/// Maps between *tuple coverage* (the fraction of a window's tuples that
/// make it into the buffer before the window is released) and *result
/// quality* (1 - normalized error of the produced aggregate).
///
/// The buffer controls coverage directly — `coverage(K) = P(lateness <= K)`
/// — but the user specifies quality of results. Different aggregates
/// translate missing tuples into error differently (a missing tuple changes
/// `sum` proportionally but rarely changes `max`), and the quality model
/// captures that translation so the same buffer logic serves all of them.
class QualityModel {
 public:
  virtual ~QualityModel() = default;

  /// Expected result quality when a fraction `coverage` of tuples is
  /// present. Must be non-decreasing in coverage, with f(1) = 1.
  virtual double QualityFromCoverage(double coverage) const = 0;

  /// Smallest coverage that achieves quality `q` (inverse of the above;
  /// conservative, i.e. rounds up).
  virtual double CoverageForQuality(double q) const = 0;

  virtual std::string_view name() const = 0;
};

/// Identity model: quality *is* coverage. This is the standard
/// "window completeness" quality metric and the default.
class CoverageQualityModel : public QualityModel {
 public:
  double QualityFromCoverage(double coverage) const override {
    return std::clamp(coverage, 0.0, 1.0);
  }
  double CoverageForQuality(double q) const override {
    return std::clamp(q, 0.0, 1.0);
  }
  std::string_view name() const override { return "coverage"; }
};

/// Power-law model: quality = coverage^gamma.
///   gamma < 1 — aggregates robust to missing tuples (max/min/quantiles):
///     high quality already at moderate coverage.
///   gamma = 1 — proportional aggregates (sum/count).
///   gamma > 1 — error-amplifying aggregates (variance-like).
/// quality/value_error_model.h fits gamma empirically per aggregate.
class PowerQualityModel : public QualityModel {
 public:
  explicit PowerQualityModel(double gamma);

  double QualityFromCoverage(double coverage) const override;
  double CoverageForQuality(double q) const override;
  std::string_view name() const override { return "power"; }

  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// Convenience factories.
std::unique_ptr<QualityModel> MakeCoverageQualityModel();
std::unique_ptr<QualityModel> MakePowerQualityModel(double gamma);

}  // namespace streamq

#endif  // STREAMQ_CONTROL_QUALITY_MODEL_H_
