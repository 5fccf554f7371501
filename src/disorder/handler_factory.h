#ifndef STREAMQ_DISORDER_HANDLER_FACTORY_H_
#define STREAMQ_DISORDER_HANDLER_FACTORY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "disorder/aq_kslack.h"
#include "disorder/disorder_handler.h"
#include "disorder/fixed_kslack.h"
#include "disorder/keyed_handler.h"
#include "disorder/lb_kslack.h"
#include "disorder/mp_kslack.h"
#include "disorder/pass_through.h"
#include "disorder/speculative.h"
#include "disorder/watermark_reorderer.h"

namespace streamq {

/// Tagged-union configuration for any disorder handler; lets query specs,
/// examples and experiment harnesses choose handlers by name.
struct DisorderHandlerSpec {
  enum class Kind {
    kPassThrough,
    kFixedKSlack,
    kMpKSlack,
    kAqKSlack,
    kLbKSlack,
    kWatermark,
    kSpeculative,
  };

  Kind kind = Kind::kAqKSlack;
  DurationUs fixed_k = 0;               // kFixedKSlack
  MpKSlack::Options mp;                 // kMpKSlack
  QualityController::Options quality;   // kAqKSlack, kSpeculative
  LbKSlack::Options lb;                 // kLbKSlack
  WatermarkReorderer::Options wm;       // kWatermark
  /// Optional quality-model exponent for the quality loop (kAqKSlack,
  /// kSpeculative); <= 0 means coverage model.
  double quality_gamma = 0.0;

  /// If true, the configured handler runs *per key* (one instance per key,
  /// merged minimum watermark) via KeyedDisorderHandler. Right choice when
  /// keys have heterogeneous delay distributions. Ignored for kPassThrough.
  bool per_key = false;

  /// Hard cap on buffered tuples (0 = unbounded). Applied to the top-level
  /// handler only: for a per-key spec the keyed wrapper enforces it as one
  /// global budget across all keys (shards stay uncapped).
  size_t max_buffered_events = 0;

  /// What to shed when an arrival finds the buffer at the cap.
  ShedPolicy shed_policy = ShedPolicy::kEmitEarly;

  /// Clamp on the slack K adaptive handlers may request (0 = unbounded).
  /// Propagated to every layer, shards included.
  DurationUs max_slack = 0;

  /// Named constructors — the supported way to build a spec. Each sets
  /// exactly the fields its kind reads; combine with the chainable
  /// modifiers below instead of assigning fields directly.
  static DisorderHandlerSpec PassThrough();
  static DisorderHandlerSpec Fixed(DurationUs k);
  static DisorderHandlerSpec Mp(const MpKSlack::Options& options);
  static DisorderHandlerSpec Aq(const AqKSlack::Options& options,
                                double quality_gamma = 0.0);
  static DisorderHandlerSpec Lb(const LbKSlack::Options& options);
  static DisorderHandlerSpec Watermark(
      const WatermarkReorderer::Options& options);
  /// Speculative emit-then-amend: no reorder buffer; the output watermark
  /// trails the frontier by an adaptive hold driven by the amend-rate
  /// controller. Requires an amend-capable window engine downstream.
  static DisorderHandlerSpec Speculative(
      const SpeculativeHandler::Options& options,
      double quality_gamma = 0.0);

  /// Chainable modifiers: return an adjusted copy, so specs compose in one
  /// expression, e.g. DisorderHandlerSpec::Fixed(Seconds(1)).PerKey().
  DisorderHandlerSpec PerKey(bool enabled = true) const;
  /// Bounded-memory degradation: cap the buffer at `max_buffered_events`
  /// tuples, shedding per `policy` (0 removes the cap).
  DisorderHandlerSpec WithBufferCap(
      size_t max_buffered_events,
      ShedPolicy policy = ShedPolicy::kEmitEarly) const;
  /// Clamp adaptive K at `max_slack` microseconds (0 removes the clamp).
  DisorderHandlerSpec WithMaxSlack(DurationUs max_slack) const;

  /// Checks every field the configured kind reads (slack signs, quantile
  /// bounds, controller gains, gamma). MakeDisorderHandler calls this, so a
  /// spec that passes Validate() is guaranteed to construct.
  Status Validate() const;

  /// Human-readable name of the configured handler.
  std::string Describe() const;
};

/// Validates `spec` and instantiates the configured handler into `*out`.
/// On error `*out` is left null and the Status explains which field was
/// rejected.
Status MakeDisorderHandler(const DisorderHandlerSpec& spec,
                           std::unique_ptr<DisorderHandler>* out);

/// Convenience wrapper for callers whose spec is known-good (tests,
/// benches, already-validated queries): aborts on invalid specs.
std::unique_ptr<DisorderHandler> MakeDisorderHandlerOrDie(
    const DisorderHandlerSpec& spec);

}  // namespace streamq

#endif  // STREAMQ_DISORDER_HANDLER_FACTORY_H_
