#include "disorder/handler_factory.h"

#include <cstdio>

#include "common/logging.h"

namespace streamq {

DisorderHandlerSpec DisorderHandlerSpec::PassThrough() {
  DisorderHandlerSpec s;
  s.kind = Kind::kPassThrough;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::Fixed(DurationUs k) {
  DisorderHandlerSpec s;
  s.kind = Kind::kFixedKSlack;
  s.fixed_k = k;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::PerKey(bool enabled) const {
  DisorderHandlerSpec s = *this;
  s.per_key = enabled;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::WithBufferCap(
    size_t max_buffered_events, ShedPolicy policy) const {
  DisorderHandlerSpec s = *this;
  s.max_buffered_events = max_buffered_events;
  s.shed_policy = policy;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::WithMaxSlack(
    DurationUs max_slack) const {
  DisorderHandlerSpec s = *this;
  s.max_slack = max_slack;
  return s;
}

Status DisorderHandlerSpec::Validate() const {
  if (max_slack < 0) {
    return Status::InvalidArgument("spec: max_slack must be >= 0");
  }
  switch (kind) {
    case Kind::kPassThrough:
      break;
    case Kind::kFixedKSlack:
      if (fixed_k < 0) {
        return Status::InvalidArgument("fixed-kslack: K must be >= 0");
      }
      break;
    case Kind::kMpKSlack:
      if (mp.window_size <= 0) {
        return Status::InvalidArgument("mp-kslack: window_size must be > 0");
      }
      if (!(mp.safety_factor >= 0.0)) {
        return Status::InvalidArgument(
            "mp-kslack: safety_factor must be >= 0");
      }
      break;
    case Kind::kAqKSlack:
    case Kind::kSpeculative: {
      const std::string who =
          kind == Kind::kAqKSlack ? "aq-kslack: " : "speculative: ";
      const Status status = quality.Validate();
      if (!status.ok()) return Status::InvalidArgument(who + status.message());
      if (!(quality_gamma >= 0.0)) {
        return Status::InvalidArgument(
            who + "quality gamma must be >= 0 (0 = coverage model)");
      }
      if (kind == Kind::kSpeculative &&
          quality.estimator != QualityController::Estimator::kSlidingWindow) {
        return Status::InvalidArgument(
            "speculative: the lateness estimator must be the sliding window");
      }
      break;
    }
    case Kind::kLbKSlack:
      if (lb.latency_budget <= 0) {
        return Status::InvalidArgument(
            "lb-kslack: latency_budget must be > 0");
      }
      if (lb.sketch_window == 0) {
        return Status::InvalidArgument("lb-kslack: sketch_window must be > 0");
      }
      if (lb.adaptation_interval <= 0) {
        return Status::InvalidArgument(
            "lb-kslack: adaptation_interval must be > 0");
      }
      if (!(lb.p_min >= 0.0 && lb.p_max <= 1.0 && lb.p_min < lb.p_max)) {
        return Status::InvalidArgument(
            "lb-kslack: need 0 <= p_min < p_max <= 1");
      }
      if (!(lb.max_step > 0.0)) {
        return Status::InvalidArgument("lb-kslack: max_step must be > 0");
      }
      break;
    case Kind::kWatermark:
      if (wm.bound < 0) {
        return Status::InvalidArgument("watermark: bound must be >= 0");
      }
      if (wm.period_events <= 0) {
        return Status::InvalidArgument(
            "watermark: period_events must be > 0");
      }
      if (wm.allowed_lateness < 0) {
        return Status::InvalidArgument(
            "watermark: allowed_lateness must be >= 0");
      }
      break;
  }
  return Status::OK();
}

DisorderHandlerSpec DisorderHandlerSpec::Mp(const MpKSlack::Options& options) {
  DisorderHandlerSpec s;
  s.kind = Kind::kMpKSlack;
  s.mp = options;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::Aq(const AqKSlack::Options& options,
                                            double quality_gamma) {
  DisorderHandlerSpec s;
  s.kind = Kind::kAqKSlack;
  s.quality = options;
  s.quality_gamma = quality_gamma;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::Lb(const LbKSlack::Options& options) {
  DisorderHandlerSpec s;
  s.kind = Kind::kLbKSlack;
  s.lb = options;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::Watermark(
    const WatermarkReorderer::Options& options) {
  DisorderHandlerSpec s;
  s.kind = Kind::kWatermark;
  s.wm = options;
  return s;
}

DisorderHandlerSpec DisorderHandlerSpec::Speculative(
    const SpeculativeHandler::Options& options, double quality_gamma) {
  DisorderHandlerSpec s;
  s.kind = Kind::kSpeculative;
  s.quality = options;
  s.quality_gamma = quality_gamma;
  return s;
}

std::string DisorderHandlerSpec::Describe() const {
  if (max_buffered_events != 0) {
    DisorderHandlerSpec inner = *this;
    inner.max_buffered_events = 0;
    char cap[64];
    std::snprintf(cap, sizeof(cap), "+cap(%zu,%s)", max_buffered_events,
                  ShedPolicyName(shed_policy));
    return inner.Describe() + cap;
  }
  if (per_key) {
    DisorderHandlerSpec inner = *this;
    inner.per_key = false;
    return "per-key[" + inner.Describe() + "]";
  }
  char buf[128];
  switch (kind) {
    case Kind::kPassThrough:
      return "pass-through";
    case Kind::kFixedKSlack:
      std::snprintf(buf, sizeof(buf), "fixed-kslack(K=%s)",
                    FormatDuration(fixed_k).c_str());
      return buf;
    case Kind::kMpKSlack:
      std::snprintf(buf, sizeof(buf), "mp-kslack(%s, w=%lld, beta=%.2f)",
                    mp.mode == MpKSlack::Mode::kGrowOnly ? "grow" : "sliding",
                    static_cast<long long>(mp.window_size), mp.safety_factor);
      return buf;
    case Kind::kAqKSlack:
      std::snprintf(buf, sizeof(buf), "aq-kslack(q*=%.3f)",
                    quality.target_quality);
      return buf;
    case Kind::kLbKSlack:
      std::snprintf(buf, sizeof(buf), "lb-kslack(L*=%s)",
                    FormatDuration(lb.latency_budget).c_str());
      return buf;
    case Kind::kWatermark:
      std::snprintf(buf, sizeof(buf), "watermark(bound=%s, lateness=%s)",
                    FormatDuration(wm.bound).c_str(),
                    FormatDuration(wm.allowed_lateness).c_str());
      return buf;
    case Kind::kSpeculative:
      std::snprintf(buf, sizeof(buf), "speculative(q*=%.3f)",
                    quality.target_quality);
      return buf;
  }
  return "?";
}

namespace {

/// Builds a pre-validated spec (shared by the checked and OrDie entry
/// points; the keyed wrapper recurses here with per_key stripped).
std::unique_ptr<DisorderHandler> BuildHandler(const DisorderHandlerSpec& spec);

std::unique_ptr<DisorderHandler> BuildHandlerInner(
    const DisorderHandlerSpec& spec) {
  if (spec.per_key && spec.kind != DisorderHandlerSpec::Kind::kPassThrough) {
    DisorderHandlerSpec inner = spec.PerKey(false);
    // The keyed wrapper enforces the cap as one global budget across all
    // keys; shards stay uncapped (max_slack still reaches them below).
    inner.max_buffered_events = 0;
    return std::make_unique<KeyedDisorderHandler>(
        [inner] { return BuildHandler(inner); });
  }
  const auto model = [&spec]() -> std::unique_ptr<QualityModel> {
    if (spec.quality_gamma <= 0.0) return nullptr;  // coverage model
    return MakePowerQualityModel(spec.quality_gamma);
  };
  switch (spec.kind) {
    case DisorderHandlerSpec::Kind::kPassThrough:
      return std::make_unique<PassThrough>();
    case DisorderHandlerSpec::Kind::kFixedKSlack:
      return std::make_unique<FixedKSlack>(spec.fixed_k);
    case DisorderHandlerSpec::Kind::kMpKSlack:
      return std::make_unique<MpKSlack>(spec.mp);
    case DisorderHandlerSpec::Kind::kAqKSlack:
      return std::make_unique<AqKSlack>(spec.quality, model());
    case DisorderHandlerSpec::Kind::kLbKSlack:
      return std::make_unique<LbKSlack>(spec.lb);
    case DisorderHandlerSpec::Kind::kWatermark:
      return std::make_unique<WatermarkReorderer>(spec.wm);
    case DisorderHandlerSpec::Kind::kSpeculative:
      return std::make_unique<SpeculativeHandler>(spec.quality, model());
  }
  STREAMQ_LOG(Fatal) << "unknown disorder handler kind";
  return nullptr;
}

std::unique_ptr<DisorderHandler> BuildHandler(const DisorderHandlerSpec& spec) {
  std::unique_ptr<DisorderHandler> handler = BuildHandlerInner(spec);
  if (spec.max_buffered_events != 0) {
    handler->set_buffer_cap(spec.max_buffered_events, spec.shed_policy);
  }
  if (spec.max_slack > 0) {
    handler->set_max_slack(spec.max_slack);
  }
  return handler;
}

}  // namespace

Status MakeDisorderHandler(const DisorderHandlerSpec& spec,
                           std::unique_ptr<DisorderHandler>* out) {
  STREAMQ_CHECK(out != nullptr);
  out->reset();
  STREAMQ_RETURN_NOT_OK(spec.Validate());
  *out = BuildHandler(spec);
  return Status::OK();
}

std::unique_ptr<DisorderHandler> MakeDisorderHandlerOrDie(
    const DisorderHandlerSpec& spec) {
  std::unique_ptr<DisorderHandler> handler;
  const Status status = MakeDisorderHandler(spec, &handler);
  STREAMQ_CHECK(status.ok()) << status.ToString();
  return handler;
}

}  // namespace streamq
