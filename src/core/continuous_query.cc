#include "core/continuous_query.h"

#include <cstdio>

#include "common/logging.h"

namespace streamq {

const char* IngestValidationName(IngestValidation validation) {
  switch (validation) {
    case IngestValidation::kOff:
      return "off";
    case IngestValidation::kDrop:
      return "drop";
    case IngestValidation::kStrict:
      return "strict";
  }
  return "?";
}

Status ContinuousQuery::Validate() const {
  STREAMQ_RETURN_NOT_OK(window.window.Validate());
  STREAMQ_RETURN_NOT_OK(window.aggregate.Validate());
  if (window.allowed_lateness < 0) {
    return Status::InvalidArgument("allowed_lateness must be >= 0");
  }
  return handler.Validate();
}

std::string ContinuousQuery::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: %s %s via %s", name.c_str(),
                window.window.Describe().c_str(),
                window.aggregate.Describe().c_str(),
                handler.Describe().c_str());
  return buf;
}

QueryBuilder::QueryBuilder(std::string name) {
  query_.name = std::move(name);
  query_.handler = DisorderHandlerSpec::Aq(AqKSlack::Options{});
}

QueryBuilder& QueryBuilder::Tumbling(DurationUs size) {
  query_.window.window = WindowSpec::Tumbling(size);
  return *this;
}

QueryBuilder& QueryBuilder::Sliding(DurationUs size, DurationUs slide) {
  query_.window.window = WindowSpec::Sliding(size, slide);
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(const AggregateSpec& spec) {
  query_.window.aggregate = spec;
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(const std::string& name) {
  auto parsed = ParseAggregateSpec(name);
  STREAMQ_CHECK(parsed.ok()) << parsed.status().ToString();
  query_.window.aggregate = parsed.value();
  return *this;
}

QueryBuilder& QueryBuilder::AllowedLateness(DurationUs lateness) {
  query_.window.allowed_lateness = lateness;
  return *this;
}

QueryBuilder& QueryBuilder::RevisionPerUpdate(bool on) {
  query_.window.emit_revision_per_update = on;
  return *this;
}

QueryBuilder& QueryBuilder::QualityTarget(double target, double gamma) {
  AqKSlack::Options options;
  options.target_quality = target;
  return QualityDriven(options, gamma);
}

QueryBuilder& QueryBuilder::QualityDriven(const AqKSlack::Options& options,
                                          double gamma) {
  query_.handler = DisorderHandlerSpec::Aq(options, gamma);
  quality_driven_ = true;
  explicit_gamma_ = gamma > 0.0;
  gamma_override_ = gamma;
  return *this;
}

QueryBuilder& QueryBuilder::LatencyBudget(DurationUs budget) {
  LbKSlack::Options options;
  options.latency_budget = budget;
  return LatencyConstrained(options);
}

QueryBuilder& QueryBuilder::LatencyConstrained(const LbKSlack::Options& options) {
  query_.handler = DisorderHandlerSpec::Lb(options);
  quality_driven_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::FixedSlack(DurationUs k) {
  query_.handler = DisorderHandlerSpec::Fixed(k);
  quality_driven_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::AdaptiveMaxSlack(const MpKSlack::Options& options) {
  query_.handler = DisorderHandlerSpec::Mp(options);
  quality_driven_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::Watermark(
    const WatermarkReorderer::Options& options) {
  query_.handler = DisorderHandlerSpec::Watermark(options);
  quality_driven_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::NoDisorderHandling() {
  query_.handler = DisorderHandlerSpec::PassThrough();
  quality_driven_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::Speculative(double target, double gamma) {
  SpeculativeHandler::Options options;
  options.target_quality = target;
  return SpeculativeDriven(options, gamma);
}

QueryBuilder& QueryBuilder::SpeculativeDriven(
    const SpeculativeHandler::Options& options, double gamma) {
  query_.handler = DisorderHandlerSpec::Speculative(options, gamma);
  // Same aggregate-aware gamma defaulting as the buffered quality path:
  // the amend-rate budget should price provisional error the way the
  // aggregate experiences it.
  quality_driven_ = true;
  explicit_gamma_ = gamma > 0.0;
  gamma_override_ = gamma;
  return *this;
}

QueryBuilder& QueryBuilder::WindowEngine(WindowedAggregation::Engine engine) {
  query_.window.engine = engine;
  return *this;
}

QueryBuilder& QueryBuilder::PerKey(bool on) {
  query_.handler = query_.handler.PerKey(on);
  query_.window.per_key_watermarks = on;
  return *this;
}

QueryBuilder& QueryBuilder::ValidateIngest(IngestValidation validation) {
  query_.validation = validation;
  return *this;
}

QueryBuilder& QueryBuilder::BufferCap(size_t max_buffered_events,
                                      ShedPolicy policy) {
  query_.handler = query_.handler.WithBufferCap(max_buffered_events, policy);
  return *this;
}

QueryBuilder& QueryBuilder::MaxSlack(DurationUs max_slack) {
  query_.handler = query_.handler.WithMaxSlack(max_slack);
  return *this;
}

ContinuousQuery QueryBuilder::Build() const {
  ContinuousQuery q = query_;
  if (quality_driven_ && !explicit_gamma_) {
    // Aggregate-aware default: translate the quality target through the
    // aggregate's error profile.
    q.handler.quality_gamma = DefaultQualityGamma(q.window.aggregate.kind);
  }
  STREAMQ_CHECK_OK(q.Validate());
  return q;
}

}  // namespace streamq
