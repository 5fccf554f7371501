#ifndef STREAMQ_CORE_SESSION_OPTIONS_H_
#define STREAMQ_CORE_SESSION_OPTIONS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/continuous_query.h"
#include "core/parallel_runner.h"

namespace streamq {

/// The one front door for configuring a streamq session: every runtime knob
/// the CLI, the network server's RegisterQuery frames, and the load
/// generator agree on lives here, with one validator and one flag parser
/// shared by all three. Construct with the chainable named setters (mirrors
/// DisorderHandlerSpec's style), or parse from `--flag=value` tokens; both
/// paths funnel through Validate(), which centralizes the cross-field rules
/// that used to be scattered across hand-rolled parsers (`--threads`
/// requires `--per-key`, `vshards >= threads`, cap/policy combos, ...).
///
/// Sessions are opened from a validated SessionOptions via
/// StreamSession::Open (core/stream_session.h).
struct SessionOptions {
  /// Session / query name (diagnostics and RunReport::query_name).
  std::string name = "session";

  /// Window shape: size and slide in milliseconds. slide == 0 means
  /// tumbling (slide = window).
  int64_t window_ms = 50;
  int64_t slide_ms = 0;

  /// Aggregate by name: count|sum|mean|min|max|var|stddev|median|
  /// quantile:<q>|distinct (see ParseAggregateSpec).
  std::string agg = "sum";

  /// Disorder handling strategy: aq|lb|fixed|mp|watermark|none.
  std::string strategy = "aq";

  /// Speculative emit-then-amend: skip the reorder buffer, emit provisional
  /// results at watermark time and patch them with amendment revisions.
  /// Replaces the buffered strategy (so combining it with a non-default
  /// --strategy is rejected). Both window engines absorb its out-of-order
  /// folds. Uses `quality` as the amend-rate target, like aq.
  bool speculative = false;

  /// Window engine: hot (flat store, the default) or amend (out-of-order
  /// B-tree store).
  std::string window_engine = "hot";

  /// Strategy parameters (each read only by the matching strategy).
  double quality = 0.95;          // aq: result-quality target in (0, 1].
  int64_t latency_budget_ms = 10; // lb: mean buffering-latency budget.
  int64_t k_ms = 30;              // fixed/watermark: slack / bound.

  /// Per-key disorder handling (one buffer per key, merged watermark).
  bool per_key = false;

  /// Allowed lateness for revisions, milliseconds.
  int64_t lateness_ms = 0;

  /// Parallel runtime (threads > 0 selects the sharded keyed runner and
  /// requires per_key; everything below it requires threads > 0).
  int64_t threads = 0;
  int64_t vshards = 0;   // 0 = one per worker; else must be >= threads.
  bool steal = false;    // demand-driven work stealing.

  /// Robustness / degradation.
  int64_t buffer_cap = 0;            // 0 = unbounded.
  std::string shed = "emit-early";   // emit-early|drop-newest|drop-oldest.
  int64_t max_slack_ms = 0;          // clamp on adaptive K; 0 = unbounded.
  std::string validate = "off";      // off|drop|strict ingest validation.

  /// --- Chainable named setters. ---
  SessionOptions& Name(std::string v);
  SessionOptions& Window(int64_t ms);
  SessionOptions& Slide(int64_t ms);
  SessionOptions& Aggregate(std::string v);
  SessionOptions& Strategy(std::string v);
  SessionOptions& QualityTarget(double v);
  SessionOptions& LatencyBudget(int64_t ms);
  SessionOptions& FixedK(int64_t ms);
  SessionOptions& Speculative(bool on = true);
  SessionOptions& Engine(std::string engine);
  SessionOptions& PerKey(bool on = true);
  SessionOptions& AllowedLateness(int64_t ms);
  SessionOptions& Threads(int64_t n);
  SessionOptions& VirtualShards(int64_t n);
  SessionOptions& Steal(bool on = true);
  SessionOptions& BufferCap(int64_t cap, std::string policy = "emit-early");
  SessionOptions& MaxSlack(int64_t ms);
  SessionOptions& ValidateIngest(std::string mode);

  /// Checks every field and every cross-field rule. A SessionOptions that
  /// passes Validate() is guaranteed to open (BuildQuery succeeds and the
  /// runner constraints hold). Every field is bounded, so options from an
  /// untrusted RegisterQuery frame cannot overflow a duration or size an
  /// allocation: millisecond fields are at most kMaxMillis, threads at most
  /// kMaxThreads and vshards at most kMaxVirtualShards. A query's cost per
  /// event grows with the windows each event lands in, ceil(window /
  /// slide), so that is at most kMaxWindowsPerEvent: one RegisterQuery
  /// cannot pin a core.
  static constexpr int64_t kMaxMillis = 1'000'000'000'000;  // ~31.7 years.
  static constexpr int64_t kMaxThreads = 256;
  static constexpr int64_t kMaxVirtualShards = 4096;
  static constexpr int64_t kMaxWindowsPerEvent = 1024;
  Status Validate() const;

  /// Builds the ContinuousQuery this options set describes (validates
  /// first). Threaded sessions back the handler's reorder buffers with the
  /// slab arena, like the runner's batches.
  Result<ContinuousQuery> BuildQuery() const;

  /// Runner knobs for threaded sessions (threads > 0).
  ParallelOptions BuildParallelOptions() const;

  /// Serializes the non-default fields as `--flag=value` tokens — the same
  /// vocabulary ParseTokens consumes, so options round-trip through the
  /// wire (RegisterQuery payloads) and through argv unchanged.
  std::vector<std::string> ToTokens() const;

  /// ToTokens joined with single spaces (the RegisterQuery payload format).
  std::string Serialize() const;

  /// Parses a Serialize()d string. Unknown tokens are an error here (wire
  /// payloads have no caller to hand leftovers to).
  static Result<SessionOptions> Deserialize(const std::string& text);

  /// Parses the session flags out of `tokens` into `*out`. Tokens that are
  /// not session flags are appended to `*unrecognized` (never an error:
  /// callers with extra flags of their own — trace paths, fault injection,
  /// output knobs — handle them and then reject real strays, with
  /// SuggestFlag for the hint). Malformed values for known flags are an
  /// immediate InvalidArgument, and so are retired flags and engine names,
  /// each with a did-you-mean hint naming what replaced it. Does not call
  /// Validate().
  static Status ParseTokens(std::span<const std::string> tokens,
                            SessionOptions* out,
                            std::vector<std::string>* unrecognized);

  /// argv adapter for ParseTokens (skips argv[0]).
  static Status ParseArgs(int argc, char** argv, SessionOptions* out,
                          std::vector<std::string>* unrecognized);

  /// Every flag name ParseTokens recognizes (for help text and the
  /// did-you-mean hint).
  static const std::vector<std::string>& KnownFlags();

  /// e.g. "session: sliding(50ms/50ms) sum via aq(q*=0.95), 4 threads".
  std::string Describe() const;
};

/// Closest known flag name to `arg` (by edit distance over the flag part,
/// ignoring any =value suffix), drawn from SessionOptions::KnownFlags()
/// plus `extra_known`; empty when nothing is plausibly close. Powers the
/// CLI's "unknown flag --thread (did you mean --threads?)" rejection.
std::string SuggestFlag(const std::string& arg,
                        std::span<const std::string> extra_known);

/// Strict numeric parsers shared by the flag front ends: the whole string
/// must parse (unlike atoll/atof, which silently return 0 on garbage).
Status ParseInt64Strict(const std::string& text, int64_t* out);
Status ParseDoubleStrict(const std::string& text, double* out);

/// Name <-> enum helpers centralized here so every front end agrees.
Status ParseShedPolicyName(const std::string& name, ShedPolicy* out);
Status ParseIngestValidationName(const std::string& name,
                                 IngestValidation* out);
Status ParseWindowEngineName(const std::string& name,
                             WindowedAggregation::Engine* out);

}  // namespace streamq

#endif  // STREAMQ_CORE_SESSION_OPTIONS_H_
