#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session_options.h"

namespace streamq {
namespace {

TEST(SessionOptions, DefaultsValidate) {
  SessionOptions options;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_TRUE(options.BuildQuery().ok());
}

TEST(SessionOptions, SettersChainAndSelectStrategy) {
  SessionOptions options;
  options.Name("t").Window(200).Slide(50).Aggregate("mean").QualityTarget(0.9);
  EXPECT_EQ(options.name, "t");
  EXPECT_EQ(options.window_ms, 200);
  EXPECT_EQ(options.slide_ms, 50);
  EXPECT_EQ(options.agg, "mean");
  EXPECT_EQ(options.strategy, "aq");
  EXPECT_DOUBLE_EQ(options.quality, 0.9);
  options.LatencyBudget(25);
  EXPECT_EQ(options.strategy, "lb");
  options.FixedK(40);
  EXPECT_EQ(options.strategy, "fixed");
}

TEST(SessionOptions, ValidationMatrix) {
  struct Case {
    const char* label;
    void (*mutate)(SessionOptions*);
    bool ok;
  };
  const Case kCases[] = {
      {"default", [](SessionOptions*) {}, true},
      {"zero window", [](SessionOptions* o) { o->window_ms = 0; }, false},
      {"negative slide", [](SessionOptions* o) { o->slide_ms = -1; }, false},
      {"bad agg", [](SessionOptions* o) { o->agg = "bogus"; }, false},
      {"quantile agg", [](SessionOptions* o) { o->agg = "quantile:0.5"; },
       true},
      {"bad strategy", [](SessionOptions* o) { o->strategy = "magic"; },
       false},
      {"aq quality 0", [](SessionOptions* o) { o->quality = 0.0; }, false},
      {"aq quality > 1", [](SessionOptions* o) { o->quality = 1.5; }, false},
      {"quality ignored off-aq",
       [](SessionOptions* o) {
         o->strategy = "fixed";
         o->quality = 1.5;
       },
       true},
      {"lb zero budget",
       [](SessionOptions* o) {
         o->strategy = "lb";
         o->latency_budget_ms = 0;
       },
       false},
      {"fixed negative k",
       [](SessionOptions* o) {
         o->strategy = "fixed";
         o->k_ms = -1;
       },
       false},
      {"negative lateness", [](SessionOptions* o) { o->lateness_ms = -5; },
       false},
      {"negative threads", [](SessionOptions* o) { o->threads = -1; }, false},
      {"threads without per-key", [](SessionOptions* o) { o->threads = 2; },
       false},
      {"threads with per-key",
       [](SessionOptions* o) {
         o->threads = 2;
         o->per_key = true;
       },
       true},
      {"vshards without threads", [](SessionOptions* o) { o->vshards = 4; },
       false},
      {"steal without threads", [](SessionOptions* o) { o->steal = true; },
       false},
      {"vshards below threads",
       [](SessionOptions* o) {
         o->threads = 4;
         o->per_key = true;
         o->vshards = 2;
       },
       false},
      {"vshards above threads",
       [](SessionOptions* o) {
         o->threads = 2;
         o->per_key = true;
         o->vshards = 8;
       },
       true},
      {"negative buffer cap", [](SessionOptions* o) { o->buffer_cap = -1; },
       false},
      {"cap with policy",
       [](SessionOptions* o) { o->BufferCap(1000, "drop-oldest"); }, true},
      {"bad shed policy", [](SessionOptions* o) { o->shed = "drop-some"; },
       false},
      {"negative max slack",
       [](SessionOptions* o) { o->max_slack_ms = -1; }, false},
      {"bad validation mode",
       [](SessionOptions* o) { o->validate = "maybe"; }, false},
      {"strict validation", [](SessionOptions* o) { o->validate = "strict"; },
       true},
      {"empty name", [](SessionOptions* o) { o->name.clear(); }, false},
      // Upper bounds: a hostile RegisterQuery frame must fail validation,
      // not overflow Millis() or size an allocation.
      {"window at the cap",
       [](SessionOptions* o) { o->window_ms = SessionOptions::kMaxMillis; },
       true},
      {"window past the cap",
       [](SessionOptions* o) { o->window_ms = 9300000000000000; }, false},
      {"slide past the cap",
       [](SessionOptions* o) {
         o->slide_ms = SessionOptions::kMaxMillis + 1;
       },
       false},
      {"lateness past the cap",
       [](SessionOptions* o) {
         o->lateness_ms = SessionOptions::kMaxMillis + 1;
       },
       false},
      {"k past the cap",
       [](SessionOptions* o) {
         o->strategy = "fixed";
         o->k_ms = SessionOptions::kMaxMillis + 1;
       },
       false},
      {"latency budget past the cap",
       [](SessionOptions* o) {
         o->strategy = "lb";
         o->latency_budget_ms = INT64_MAX;
       },
       false},
      {"max slack past the cap",
       [](SessionOptions* o) {
         o->max_slack_ms = SessionOptions::kMaxMillis + 1;
       },
       false},
      {"threads at the cap",
       [](SessionOptions* o) {
         o->per_key = true;
         o->threads = SessionOptions::kMaxThreads;
       },
       true},
      {"threads past the cap",
       [](SessionOptions* o) {
         o->per_key = true;
         o->threads = SessionOptions::kMaxThreads + 1;
       },
       false},
      {"vshards at the cap",
       [](SessionOptions* o) {
         o->per_key = true;
         o->threads = 1;
         o->vshards = SessionOptions::kMaxVirtualShards;
       },
       true},
      {"vshards past the cap",
       [](SessionOptions* o) {
         o->per_key = true;
         o->threads = 1;
         o->vshards = 100000000000000;
       },
       false},
      // Windows per event, ceil(window / slide), bound a query's cost.
      {"windows per event at the cap",
       [](SessionOptions* o) {
         o->window_ms = SessionOptions::kMaxWindowsPerEvent;
         o->slide_ms = 1;
       },
       true},
      {"windows per event past the cap",
       [](SessionOptions* o) {
         o->window_ms = SessionOptions::kMaxWindowsPerEvent + 1;
         o->slide_ms = 1;
       },
       false},
      {"windows per event rounds up",
       [](SessionOptions* o) {
         o->window_ms = 2 * SessionOptions::kMaxWindowsPerEvent + 1;
         o->slide_ms = 2;
       },
       false},
  };
  for (const Case& c : kCases) {
    SessionOptions options;
    c.mutate(&options);
    EXPECT_EQ(options.Validate().ok(), c.ok) << c.label;
    // Validate() passing must guarantee BuildQuery() succeeds.
    if (c.ok) {
      EXPECT_TRUE(options.BuildQuery().ok()) << c.label;
    }
  }
}

TEST(SessionOptions, SerializeRoundTripsNonDefaults) {
  SessionOptions options;
  options.Name("wire")
      .Window(250)
      .Slide(50)
      .Aggregate("quantile:0.9")
      .QualityTarget(0.85)
      .PerKey()
      .AllowedLateness(20)
      .Threads(4)
      .VirtualShards(8)
      .BufferCap(5000, "drop-newest")
      .MaxSlack(400)
      .ValidateIngest("drop");
  ASSERT_TRUE(options.Validate().ok());

  const std::string wire = options.Serialize();
  auto decoded = SessionOptions::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Full field-by-field round trip.
  EXPECT_EQ(decoded.value().Serialize(), wire);
  EXPECT_EQ(decoded.value().name, "wire");
  EXPECT_EQ(decoded.value().window_ms, 250);
  EXPECT_EQ(decoded.value().slide_ms, 50);
  EXPECT_EQ(decoded.value().agg, "quantile:0.9");
  EXPECT_DOUBLE_EQ(decoded.value().quality, 0.85);
  EXPECT_TRUE(decoded.value().per_key);
  EXPECT_EQ(decoded.value().threads, 4);
  EXPECT_EQ(decoded.value().vshards, 8);
  EXPECT_EQ(decoded.value().buffer_cap, 5000);
  EXPECT_EQ(decoded.value().shed, "drop-newest");
  EXPECT_EQ(decoded.value().max_slack_ms, 400);
  EXPECT_EQ(decoded.value().validate, "drop");
}

TEST(SessionOptions, DefaultSerializesEmpty) {
  // ToTokens emits only non-default fields, so defaults cross the wire as
  // zero bytes and parse back to defaults.
  SessionOptions options;
  EXPECT_EQ(options.Serialize(), "");
  auto decoded = SessionOptions::Deserialize("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().Validate().ok());
  EXPECT_EQ(decoded.value().window_ms, options.window_ms);
}

TEST(SessionOptions, DeserializeRejectsUnknownTokens) {
  auto decoded = SessionOptions::Deserialize("--window=100 --bogus=1");
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionOptions, ParseTokensCollectsLeftovers) {
  const std::vector<std::string> tokens = {"--window=75", "--trace=feed.csv",
                                           "--per-key", "--demo"};
  SessionOptions options;
  std::vector<std::string> leftover;
  ASSERT_TRUE(
      SessionOptions::ParseTokens(tokens, &options, &leftover).ok());
  EXPECT_EQ(options.window_ms, 75);
  EXPECT_TRUE(options.per_key);
  EXPECT_EQ(leftover,
            (std::vector<std::string>{"--trace=feed.csv", "--demo"}));
}

TEST(SessionOptions, ParseTokensRejectsMalformedValues) {
  SessionOptions options;
  std::vector<std::string> leftover;
  EXPECT_EQ(SessionOptions::ParseTokens(
                std::vector<std::string>{"--window=abc"}, &options, &leftover)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SessionOptions::ParseTokens(std::vector<std::string>{"--window"},
                                        &options, &leftover)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SessionOptions::ParseTokens(
                std::vector<std::string>{"--lateness=soon"}, &options,
                &leftover)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SessionOptions::ParseTokens(
                std::vector<std::string>{"--quality=fast"}, &options,
                &leftover)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionOptions, SpeculativeAndEngineFlags) {
  // Parse, validate and build the speculative emit-then-amend mode.
  {
    SessionOptions options;
    std::vector<std::string> leftover;
    const std::vector<std::string> tokens = {"--speculative",
                                             "--window-engine=amend"};
    ASSERT_TRUE(SessionOptions::ParseTokens(tokens, &options, &leftover).ok());
    EXPECT_TRUE(leftover.empty());
    EXPECT_TRUE(options.speculative);
    EXPECT_EQ(options.window_engine, "amend");
    ASSERT_TRUE(options.Validate().ok());
    auto query = options.BuildQuery();
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_EQ(query.value().handler.kind,
              DisorderHandlerSpec::Kind::kSpeculative);
    EXPECT_EQ(query.value().window.engine,
              WindowedAggregation::Engine::kAmend);
    // Round-trips over the wire like every other flag.
    auto decoded = SessionOptions::Deserialize(options.Serialize());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().speculative);
    EXPECT_EQ(decoded.value().window_engine, "amend");
  }
  // The retired legacy engine is rejected with a hint, never ignored.
  {
    SessionOptions options;
    options.Speculative().Engine("legacy");
    const Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("did you mean --window-engine=hot"),
              std::string::npos)
        << status.ToString();
  }
  // --speculative replaces the buffered strategies.
  {
    SessionOptions options;
    options.Speculative().Strategy("fixed");
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Engine names are validated.
  {
    SessionOptions options;
    options.Engine("btree");
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Both engines build, with and without speculation.
  for (const char* engine : {"hot", "amend"}) {
    SessionOptions speculative;
    speculative.Speculative().Engine(engine);
    EXPECT_TRUE(speculative.BuildQuery().ok()) << engine;
    SessionOptions options;
    options.Engine(engine);
    EXPECT_TRUE(options.BuildQuery().ok()) << engine;
  }
}

TEST(SessionOptions, SuggestFlagFindsNearMisses) {
  EXPECT_EQ(SuggestFlag("--thread=2", {}), "--threads");
  EXPECT_EQ(SuggestFlag("--qualty=0.9", {}), "--quality");
  EXPECT_EQ(SuggestFlag("--windw=10", {}), "--window");
  EXPECT_EQ(SuggestFlag("--window-engin=amend", {}), "--window-engine");
  EXPECT_EQ(SuggestFlag("--speculativ", {}), "--speculative");
  const std::vector<std::string> extra = {"--trace"};
  EXPECT_EQ(SuggestFlag("--trce=x", extra), "--trace");
  // Far-off garbage should produce no suggestion at all.
  EXPECT_EQ(SuggestFlag("--zzzzzzzzzzzz", {}), "");
}

TEST(SessionOptions, StrictNumericParsers) {
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64Strict("-42", &i).ok());
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64Strict("", &i).ok());
  EXPECT_FALSE(ParseInt64Strict("12x", &i).ok());
  EXPECT_FALSE(ParseInt64Strict("99999999999999999999999", &i).ok());
  double d = 0.0;
  EXPECT_TRUE(ParseDoubleStrict("0.25", &d).ok());
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(ParseDoubleStrict("", &d).ok());
  EXPECT_FALSE(ParseDoubleStrict("1.2.3", &d).ok());
}

TEST(SessionOptions, DescribeNamesTheConfiguration) {
  SessionOptions options;
  options.Name("svc").Window(100).PerKey().Threads(2).VirtualShards(4);
  const std::string text = options.Describe();
  EXPECT_NE(text.find("svc"), std::string::npos);
  EXPECT_NE(text.find("per-key"), std::string::npos);
  EXPECT_NE(text.find("2 threads"), std::string::npos);
}

TEST(SessionOptions, BuildParallelOptionsMirrorsFields) {
  SessionOptions options;
  options.PerKey().Threads(2).VirtualShards(6).Steal();
  const ParallelOptions popts = options.BuildParallelOptions();
  EXPECT_EQ(popts.virtual_shards, 6u);
  EXPECT_TRUE(popts.steal);
}

TEST(SessionOptions, SchedulerFlagsParseRoundTripAndValidate) {
  // Parse the scheduler flags, round-trip them through the wire form,
  // and check they land in ParallelOptions.
  SessionOptions options;
  std::vector<std::string> leftover;
  const std::vector<std::string> tokens = {"--per-key", "--threads=2",
                                           "--steal"};
  ASSERT_TRUE(SessionOptions::ParseTokens(tokens, &options, &leftover).ok());
  EXPECT_TRUE(leftover.empty());
  EXPECT_TRUE(options.steal);
  ASSERT_TRUE(options.Validate().ok());

  auto decoded = SessionOptions::Deserialize(options.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().steal);
  EXPECT_EQ(decoded.value().Serialize(), options.Serialize());

  const ParallelOptions popts = options.BuildParallelOptions();
  EXPECT_TRUE(popts.steal);

  const std::string text = options.Describe();
  EXPECT_NE(text.find("steal"), std::string::npos);
}

TEST(SessionOptions, RetiredFlagsAreRejectedWithHints) {
  // Each retired flag fails loudly on both front ends — argv parsing and
  // the wire — naming what replaced it, instead of being silently
  // accepted or reported as merely unknown.
  const struct {
    const char* token;
    const char* hint;
  } kRetired[] = {
      {"--rebalance", "did you mean --steal?"},
      {"--numa-arena", "always pool their batches"},
      {"--window-engine=legacy", "did you mean --window-engine=hot?"},
      {"--arena=off", "always pool their batches"},
      {"--pin-cores", "taskset"},
      {"--mpsc=2", "one ordered source"},
      {"--adaptive-batch", "fixed batch"},
  };
  for (const auto& retired : kRetired) {
    SCOPED_TRACE(retired.token);
    SessionOptions options;
    std::vector<std::string> leftover;
    const std::vector<std::string> tokens = {"--per-key", "--threads=2",
                                             retired.token};
    const Status parsed =
        SessionOptions::ParseTokens(tokens, &options, &leftover);
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.message().find(retired.hint), std::string::npos)
        << parsed.ToString();
    EXPECT_TRUE(leftover.empty());

    const auto decoded = SessionOptions::Deserialize(retired.token);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(retired.hint),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SessionOptions, SchedulerFlagsRequireThreadsAndSingleSource) {
  {
    // No --threads: the scheduler flags are parallel-only.
    SessionOptions options;
    options.PerKey().Steal();
    const Status st = options.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("--steal"), std::string::npos);
    EXPECT_NE(st.message().find("--threads"), std::string::npos);
  }
  {
    // Valid combination passes.
    SessionOptions options;
    options.PerKey().Threads(2).Steal();
    EXPECT_TRUE(options.Validate().ok());
  }
}

TEST(SessionOptions, SchedulerFlagNearMissesSuggest) {
  EXPECT_EQ(SuggestFlag("--stea", {}), "--steal");
  EXPECT_EQ(SuggestFlag("--vshads", {}), "--vshards");
}

}  // namespace
}  // namespace streamq
