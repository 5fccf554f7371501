#include "core/session_options.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "agg/aggregate.h"

namespace streamq {

namespace {

const char* const kStrategies[] = {"aq", "lb", "fixed", "mp", "watermark",
                                   "none"};

bool KnownStrategy(const std::string& s) {
  for (const char* name : kStrategies) {
    if (s == name) return true;
  }
  return false;
}

/// Levenshtein distance, the classic O(n*m) DP.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The flag part of a token: everything before the first '='.
std::string FlagPart(const std::string& token) {
  const size_t eq = token.find('=');
  return eq == std::string::npos ? token : token.substr(0, eq);
}

}  // namespace

Status ParseInt64Strict(const std::string& text, int64_t* out) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + text + "'");
  }
  *out = v;
  return Status::OK();
}

Status ParseShedPolicyName(const std::string& name, ShedPolicy* out) {
  if (name == "emit-early") {
    *out = ShedPolicy::kEmitEarly;
  } else if (name == "drop-newest") {
    *out = ShedPolicy::kDropNewest;
  } else if (name == "drop-oldest") {
    *out = ShedPolicy::kDropOldest;
  } else {
    return Status::InvalidArgument(
        "unknown shed policy '" + name +
        "' (want emit-early, drop-newest or drop-oldest)");
  }
  return Status::OK();
}

Status ParseWindowEngineName(const std::string& name,
                             WindowedAggregation::Engine* out) {
  if (name == "hot") {
    *out = WindowedAggregation::Engine::kHot;
  } else if (name == "amend") {
    *out = WindowedAggregation::Engine::kAmend;
  } else if (name == "legacy") {
    return Status::InvalidArgument(
        "the legacy window engine was removed; hot produces the same "
        "results (did you mean --window-engine=hot?)");
  } else {
    return Status::InvalidArgument("unknown window engine '" + name +
                                   "' (want hot or amend)");
  }
  return Status::OK();
}

Status ParseIngestValidationName(const std::string& name,
                                 IngestValidation* out) {
  if (name == "off") {
    *out = IngestValidation::kOff;
  } else if (name == "drop") {
    *out = IngestValidation::kDrop;
  } else if (name == "strict") {
    *out = IngestValidation::kStrict;
  } else {
    return Status::InvalidArgument("unknown validation mode '" + name +
                                   "' (want off, drop or strict)");
  }
  return Status::OK();
}

// --------------------------------------------------------------- setters

SessionOptions& SessionOptions::Name(std::string v) {
  name = std::move(v);
  return *this;
}
SessionOptions& SessionOptions::Window(int64_t ms) {
  window_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::Slide(int64_t ms) {
  slide_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::Aggregate(std::string v) {
  agg = std::move(v);
  return *this;
}
SessionOptions& SessionOptions::Strategy(std::string v) {
  strategy = std::move(v);
  return *this;
}
SessionOptions& SessionOptions::QualityTarget(double v) {
  strategy = "aq";
  quality = v;
  return *this;
}
SessionOptions& SessionOptions::LatencyBudget(int64_t ms) {
  strategy = "lb";
  latency_budget_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::FixedK(int64_t ms) {
  strategy = "fixed";
  k_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::Speculative(bool on) {
  speculative = on;
  return *this;
}
SessionOptions& SessionOptions::Engine(std::string engine) {
  window_engine = std::move(engine);
  return *this;
}
SessionOptions& SessionOptions::PerKey(bool on) {
  per_key = on;
  return *this;
}
SessionOptions& SessionOptions::AllowedLateness(int64_t ms) {
  lateness_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::Threads(int64_t n) {
  threads = n;
  return *this;
}
SessionOptions& SessionOptions::VirtualShards(int64_t n) {
  vshards = n;
  return *this;
}
SessionOptions& SessionOptions::Steal(bool on) {
  steal = on;
  return *this;
}
SessionOptions& SessionOptions::BufferCap(int64_t cap, std::string policy) {
  buffer_cap = cap;
  shed = std::move(policy);
  return *this;
}
SessionOptions& SessionOptions::MaxSlack(int64_t ms) {
  max_slack_ms = ms;
  return *this;
}
SessionOptions& SessionOptions::ValidateIngest(std::string mode) {
  validate = std::move(mode);
  return *this;
}

// ------------------------------------------------------------- validation

Status SessionOptions::Validate() const {
  if (name.empty()) return Status::InvalidArgument("empty session name");
  // Bound every duration first, so no rule below and no Millis() in
  // BuildQuery ever sees a value that overflows microseconds.
  const std::pair<const char*, int64_t> millis_fields[] = {
      {"--window", window_ms},         {"--slide", slide_ms},
      {"--lateness", lateness_ms},     {"--k", k_ms},
      {"--latency-budget", latency_budget_ms},
      {"--max-slack", max_slack_ms}};
  for (const auto& [flag, value] : millis_fields) {
    if (value > kMaxMillis) {
      return Status::InvalidArgument(std::string(flag) + " must be <= " +
                                     std::to_string(kMaxMillis) + " ms");
    }
  }
  if (window_ms <= 0) {
    return Status::InvalidArgument("--window must be > 0 ms");
  }
  if (slide_ms < 0) {
    return Status::InvalidArgument("--slide must be >= 0 ms (0 = tumbling)");
  }
  if (slide_ms > 0) {
    const int64_t windows_per_event = (window_ms + slide_ms - 1) / slide_ms;
    if (windows_per_event > kMaxWindowsPerEvent) {
      std::string message = "--window / --slide puts each event in ";
      message += std::to_string(windows_per_event);
      message += " windows; at most ";
      message += std::to_string(kMaxWindowsPerEvent);
      message += " allowed (raise --slide or shrink --window)";
      return Status::InvalidArgument(message);
    }
  }
  {
    auto spec = ParseAggregateSpec(agg);
    if (!spec.ok()) {
      return Status::InvalidArgument("bad --agg: " +
                                     spec.status().message());
    }
  }
  if (!KnownStrategy(strategy)) {
    return Status::InvalidArgument(
        "unknown --strategy: " + strategy +
        " (want aq, lb, fixed, mp, watermark or none)");
  }
  // Written as the negation of the valid range so NaN fails it too.
  if ((strategy == "aq" || speculative) &&
      !(quality > 0.0 && quality <= 1.0)) {
    return Status::InvalidArgument("--quality must be in (0, 1]");
  }
  {
    WindowedAggregation::Engine engine;
    STREAMQ_RETURN_NOT_OK(ParseWindowEngineName(window_engine, &engine));
  }
  if (speculative && strategy != "aq") {
    return Status::InvalidArgument(
        "--speculative is its own disorder strategy (emit-then-amend); "
        "drop --strategy=" + strategy);
  }
  if (strategy == "lb" && latency_budget_ms <= 0) {
    return Status::InvalidArgument("--latency-budget must be > 0 ms");
  }
  if ((strategy == "fixed" || strategy == "watermark") && k_ms < 0) {
    return Status::InvalidArgument("--k must be >= 0 ms");
  }
  if (lateness_ms < 0) {
    return Status::InvalidArgument("--lateness must be >= 0 ms");
  }
  if (threads < 0) return Status::InvalidArgument("--threads must be >= 0");
  if (threads > kMaxThreads) {
    return Status::InvalidArgument("--threads must be <= " +
                                   std::to_string(kMaxThreads));
  }
  if (vshards > kMaxVirtualShards) {
    return Status::InvalidArgument("--vshards must be <= " +
                                   std::to_string(kMaxVirtualShards));
  }
  if (threads == 0) {
    if (vshards != 0 || steal) {
      return Status::InvalidArgument(
          "--vshards/--steal require --threads=<n>");
    }
  } else {
    if (!per_key) {
      return Status::InvalidArgument(
          "--threads shards the key space, so it requires --per-key");
    }
    if (vshards != 0 && vshards < threads) {
      return Status::InvalidArgument(
          "--vshards must be 0 or >= --threads");
    }
    STREAMQ_RETURN_NOT_OK(BuildParallelOptions().Validate());
  }
  if (buffer_cap < 0) {
    return Status::InvalidArgument("--buffer-cap must be >= 0");
  }
  {
    ShedPolicy policy;
    STREAMQ_RETURN_NOT_OK(ParseShedPolicyName(shed, &policy));
  }
  if (max_slack_ms < 0) {
    return Status::InvalidArgument("--max-slack must be >= 0 ms");
  }
  {
    IngestValidation mode;
    STREAMQ_RETURN_NOT_OK(ParseIngestValidationName(validate, &mode));
  }
  return Status::OK();
}

Result<ContinuousQuery> SessionOptions::BuildQuery() const {
  STREAMQ_RETURN_NOT_OK(Validate());

  const DurationUs window = Millis(window_ms);
  const DurationUs slide = slide_ms > 0 ? Millis(slide_ms) : window;
  QueryBuilder builder(name);
  builder.Sliding(window, slide);
  auto agg_spec = ParseAggregateSpec(agg);
  builder.Aggregate(agg_spec.value());
  builder.AllowedLateness(Millis(lateness_ms));

  {
    WindowedAggregation::Engine engine = WindowedAggregation::Engine::kHot;
    (void)ParseWindowEngineName(window_engine, &engine);  // Validated above.
    builder.WindowEngine(engine);
  }
  if (speculative) {
    builder.Speculative(quality);
  } else if (strategy == "aq") {
    builder.QualityTarget(quality);
  } else if (strategy == "lb") {
    builder.LatencyBudget(Millis(latency_budget_ms));
  } else if (strategy == "fixed") {
    builder.FixedSlack(Millis(k_ms));
  } else if (strategy == "mp") {
    builder.AdaptiveMaxSlack();
  } else if (strategy == "watermark") {
    WatermarkReorderer::Options wm;
    wm.bound = Millis(k_ms);
    wm.allowed_lateness = Millis(lateness_ms);
    builder.Watermark(wm);
  } else {  // "none"
    builder.NoDisorderHandling();
  }
  if (per_key) builder.PerKey();

  if (buffer_cap > 0) {
    ShedPolicy policy = ShedPolicy::kEmitEarly;
    (void)ParseShedPolicyName(shed, &policy);  // Validated above.
    builder.BufferCap(static_cast<size_t>(buffer_cap), policy);
  }
  if (max_slack_ms > 0) builder.MaxSlack(Millis(max_slack_ms));
  IngestValidation mode = IngestValidation::kOff;
  (void)ParseIngestValidationName(validate, &mode);  // Validated above.
  builder.ValidateIngest(mode);

  return builder.Build();
}

ParallelOptions SessionOptions::BuildParallelOptions() const {
  ParallelOptions popts;
  popts.virtual_shards = static_cast<size_t>(vshards);
  popts.steal = steal;
  return popts;
}

// ------------------------------------------------------------ (de)serialize

std::vector<std::string> SessionOptions::ToTokens() const {
  const SessionOptions defaults;
  std::vector<std::string> out;
  auto emit = [&out](const std::string& flag, const std::string& value) {
    out.push_back(flag + "=" + value);
  };
  if (name != defaults.name) emit("--name", name);
  if (window_ms != defaults.window_ms) {
    emit("--window", std::to_string(window_ms));
  }
  if (slide_ms != defaults.slide_ms) emit("--slide", std::to_string(slide_ms));
  if (agg != defaults.agg) emit("--agg", agg);
  if (strategy != defaults.strategy) emit("--strategy", strategy);
  if (speculative) out.push_back("--speculative");
  if (window_engine != defaults.window_engine) {
    emit("--window-engine", window_engine);
  }
  if (quality != defaults.quality) {
    std::ostringstream q;
    q << quality;
    emit("--quality", q.str());
  }
  if (latency_budget_ms != defaults.latency_budget_ms) {
    emit("--latency-budget", std::to_string(latency_budget_ms));
  }
  if (k_ms != defaults.k_ms) emit("--k", std::to_string(k_ms));
  if (per_key) out.push_back("--per-key");
  if (lateness_ms != defaults.lateness_ms) {
    emit("--lateness", std::to_string(lateness_ms));
  }
  if (threads != defaults.threads) emit("--threads", std::to_string(threads));
  if (vshards != defaults.vshards) emit("--vshards", std::to_string(vshards));
  if (steal) out.push_back("--steal");
  if (buffer_cap != defaults.buffer_cap) {
    emit("--buffer-cap", std::to_string(buffer_cap));
  }
  if (shed != defaults.shed) emit("--shed", shed);
  if (max_slack_ms != defaults.max_slack_ms) {
    emit("--max-slack", std::to_string(max_slack_ms));
  }
  if (validate != defaults.validate) emit("--validate", validate);
  return out;
}

std::string SessionOptions::Serialize() const {
  std::string out;
  for (const std::string& token : ToTokens()) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

Result<SessionOptions> SessionOptions::Deserialize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  for (std::string token; in >> token;) tokens.push_back(token);
  SessionOptions options;
  std::vector<std::string> unrecognized;
  STREAMQ_RETURN_NOT_OK(ParseTokens(tokens, &options, &unrecognized));
  if (!unrecognized.empty()) {
    return Status::InvalidArgument("unknown session option: " +
                                   unrecognized.front());
  }
  return options;
}

// ----------------------------------------------------------------- parsing

namespace {

/// One recognized flag. `value` is null for bare boolean flags.
struct ParsedToken {
  std::string flag;
  const std::string* raw = nullptr;  // Token as given (for errors).
  bool has_value = false;
  std::string value;
};

Status BadValue(const ParsedToken& t, const Status& why) {
  return Status::InvalidArgument("bad " + t.flag + ": " + why.message());
}

/// Session flags that no longer exist, with what replaced each.
struct RetiredFlag {
  const char* flag;
  const char* hint;
};
constexpr RetiredFlag kRetiredFlags[] = {
    {"--rebalance",
     "work stealing is the one way to move a shard (did you mean --steal?)"},
    {"--numa-arena",
     "threaded runs always pool their batches in one slab arena; drop the "
     "flag"},
    {"--arena",
     "threaded runs always pool their batches in a slab arena; drop the "
     "flag"},
    {"--pin-cores",
     "thread placement is left to the OS; confine the process with "
     "taskset or a cpuset instead"},
    {"--mpsc",
     "the threaded runners read one ordered source; merge the feeds "
     "upstream into one stream"},
    {"--adaptive-batch",
     "the threaded runners feed a fixed batch "
     "(ParallelOptions::batch_size); drop the flag"},
};

}  // namespace

Status SessionOptions::ParseTokens(std::span<const std::string> tokens,
                                   SessionOptions* out,
                                   std::vector<std::string>* unrecognized) {
  for (const std::string& token : tokens) {
    ParsedToken t;
    t.raw = &token;
    const size_t eq = token.find('=');
    t.flag = token.substr(0, eq);
    if (eq != std::string::npos) {
      t.has_value = true;
      t.value = token.substr(eq + 1);
    }

    auto want_value = [&t]() -> Status {
      if (!t.has_value) {
        return Status::InvalidArgument(t.flag + " needs a value (" + t.flag +
                                       "=...)");
      }
      return Status::OK();
    };
    auto int_value = [&](int64_t* field) -> Status {
      STREAMQ_RETURN_NOT_OK(want_value());
      int64_t v = 0;
      Status st = ParseInt64Strict(t.value, &v);
      if (!st.ok()) return BadValue(t, st);
      *field = v;
      return Status::OK();
    };
    auto string_value = [&](std::string* field) -> Status {
      STREAMQ_RETURN_NOT_OK(want_value());
      *field = t.value;
      return Status::OK();
    };

    Status st;
    if (t.flag == "--name") {
      st = string_value(&out->name);
    } else if (t.flag == "--window") {
      st = int_value(&out->window_ms);
    } else if (t.flag == "--slide") {
      st = int_value(&out->slide_ms);
    } else if (t.flag == "--agg") {
      st = string_value(&out->agg);
    } else if (t.flag == "--strategy") {
      st = string_value(&out->strategy);
    } else if (t.flag == "--quality") {
      STREAMQ_RETURN_NOT_OK(want_value());
      double v = 0.0;
      st = ParseDoubleStrict(t.value, &v);
      if (!st.ok()) return BadValue(t, st);
      out->quality = v;
    } else if (t.flag == "--latency-budget") {
      st = int_value(&out->latency_budget_ms);
    } else if (t.flag == "--k") {
      st = int_value(&out->k_ms);
    } else if (t.flag == "--speculative") {
      out->speculative = true;
    } else if (t.flag == "--window-engine") {
      STREAMQ_RETURN_NOT_OK(want_value());
      WindowedAggregation::Engine engine = WindowedAggregation::Engine::kHot;
      st = ParseWindowEngineName(t.value, &engine);
      if (st.ok()) out->window_engine = t.value;
    } else if (t.flag == "--per-key") {
      out->per_key = true;
    } else if (t.flag == "--lateness") {
      st = int_value(&out->lateness_ms);
    } else if (t.flag == "--threads") {
      st = int_value(&out->threads);
    } else if (t.flag == "--vshards") {
      st = int_value(&out->vshards);
    } else if (t.flag == "--steal") {
      out->steal = true;
    } else if (t.flag == "--buffer-cap") {
      st = int_value(&out->buffer_cap);
    } else if (t.flag == "--shed") {
      st = string_value(&out->shed);
    } else if (t.flag == "--max-slack") {
      st = int_value(&out->max_slack_ms);
    } else if (t.flag == "--validate") {
      st = string_value(&out->validate);
    } else {
      for (const RetiredFlag& retired : kRetiredFlags) {
        if (t.flag == retired.flag) {
          return Status::InvalidArgument(t.flag + " was removed; " +
                                         retired.hint);
        }
      }
      if (unrecognized != nullptr) unrecognized->push_back(token);
      continue;
    }
    STREAMQ_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status SessionOptions::ParseArgs(int argc, char** argv, SessionOptions* out,
                                 std::vector<std::string>* unrecognized) {
  std::vector<std::string> tokens;
  tokens.reserve(argc > 0 ? static_cast<size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return ParseTokens(tokens, out, unrecognized);
}

const std::vector<std::string>& SessionOptions::KnownFlags() {
  static const std::vector<std::string>* flags = new std::vector<std::string>{
      "--name",      "--window",    "--slide",          "--agg",
      "--strategy",  "--speculative", "--window-engine", "--quality",
      "--latency-budget", "--k",
      "--per-key",   "--lateness",  "--threads",        "--vshards",
      "--steal",     "--buffer-cap", "--shed",     "--max-slack",
      "--validate"};
  return *flags;
}

std::string SessionOptions::Describe() const {
  std::ostringstream out;
  const int64_t slide = slide_ms > 0 ? slide_ms : window_ms;
  out << name << ": sliding(" << window_ms << "ms/" << slide << "ms) " << agg;
  if (speculative) {
    out << " via speculative(q*=" << quality << ")";
  } else {
    out << " via " << strategy;
    if (strategy == "aq") out << "(q*=" << quality << ")";
    if (strategy == "lb") out << "(L<=" << latency_budget_ms << "ms)";
    if (strategy == "fixed" || strategy == "watermark") {
      out << "(k=" << k_ms << "ms)";
    }
  }
  if (window_engine != "hot") out << " [" << window_engine << " engine]";
  if (per_key) out << " per-key";
  if (threads > 0) {
    out << ", " << threads << " thread" << (threads > 1 ? "s" : "");
    if (vshards > 0) out << " x " << vshards << " vshards";
    if (steal) out << ", steal";
  }
  if (buffer_cap > 0) out << ", cap=" << buffer_cap << "(" << shed << ")";
  if (validate != "off") out << ", validate=" << validate;
  return out.str();
}

std::string SuggestFlag(const std::string& arg,
                        std::span<const std::string> extra_known) {
  const std::string flag = FlagPart(arg);
  std::string best;
  size_t best_dist = flag.size();  // Anything worse is no suggestion.
  auto consider = [&](const std::string& candidate) {
    const size_t d = EditDistance(flag, candidate);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  };
  for (const std::string& f : SessionOptions::KnownFlags()) consider(f);
  for (const std::string& f : extra_known) consider(f);
  // Only suggest near-misses: within 3 edits and at most half the flag.
  if (best_dist > 3 || best_dist * 2 > flag.size()) return "";
  return best;
}

}  // namespace streamq
