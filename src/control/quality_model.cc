#include "control/quality_model.h"

#include <cmath>

#include "common/logging.h"

namespace streamq {

PowerQualityModel::PowerQualityModel(double gamma) : gamma_(gamma) {
  STREAMQ_CHECK_GT(gamma, 0.0);
}

double PowerQualityModel::QualityFromCoverage(double coverage) const {
  coverage = std::clamp(coverage, 0.0, 1.0);
  return std::pow(coverage, gamma_);
}

double PowerQualityModel::CoverageForQuality(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  return std::pow(q, 1.0 / gamma_);
}

std::unique_ptr<QualityModel> MakeCoverageQualityModel() {
  return std::make_unique<CoverageQualityModel>();
}

std::unique_ptr<QualityModel> MakePowerQualityModel(double gamma) {
  return std::make_unique<PowerQualityModel>(gamma);
}

}  // namespace streamq
