// Tests for the pipeline observability layer: the Chrome trace_event JSON
// schema of the trace sink (golden-file style, validated structurally),
// the zero-overhead-when-disabled contract, and the metrics registry.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bolt/engine.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "models/zoo.h"

namespace bolt {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator: enough of RFC 8259 to prove the emitted trace is
// well-formed (objects, arrays, strings with escapes, numbers, literals).

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool Valid() {
    Skip();
    if (!ParseValue()) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool ParseString() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Eat('"');
  }
  bool ParseNumber() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool ParseObject() {
    if (!Eat('{')) return false;
    Skip();
    if (Eat('}')) return true;
    for (;;) {
      Skip();
      if (!ParseString()) return false;
      Skip();
      if (!Eat(':')) return false;
      if (!ParseValue()) return false;
      Skip();
      if (Eat(',')) continue;
      return Eat('}');
    }
  }
  bool ParseArray() {
    if (!Eat('[')) return false;
    Skip();
    if (Eat(']')) return true;
    for (;;) {
      if (!ParseValue()) return false;
      Skip();
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
  bool ParseValue() {
    Skip();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// One parsed trace event (the sink writes one event object per line).
struct Ev {
  char ph = '?';
  double ts = 0.0;
  int pid = -1;
  int tid = -1;
  std::string name;
};

std::vector<Ev> ParseEvents(const std::string& json) {
  std::vector<Ev> evs;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const auto ph_pos = line.find("\"ph\":\"");
    if (ph_pos == std::string::npos) continue;
    Ev e;
    e.ph = line[ph_pos + 6];
    const auto name_pos = line.find("\"name\":\"");
    EXPECT_NE(name_pos, std::string::npos) << line;
    const auto name_end = line.find('"', name_pos + 8);
    e.name = line.substr(name_pos + 8, name_end - (name_pos + 8));
    const auto ts_pos = line.find("\"ts\":");
    EXPECT_NE(ts_pos, std::string::npos) << line;
    EXPECT_EQ(std::sscanf(line.c_str() + ts_pos,
                          "\"ts\":%lf,\"pid\":%d,\"tid\":%d", &e.ts, &e.pid,
                          &e.tid),
              3)
        << line;
    evs.push_back(std::move(e));
  }
  return evs;
}

TEST(TraceTest, RepVggTraceIsSchemaValidAndAccountsForTuningTime) {
  const std::string path = testing::TempDir() + "bolt_trace_repvgg.json";
#ifdef __unix__
  unsetenv("BOLT_TRACE");  // the test owns the trace destination
#endif
  trace::TraceSink::Global().Stop();  // clean slate

  models::RepVggOptions mopts;
  mopts.batch = 8;
  mopts.image_size = 32;
  mopts.num_classes = 10;
  auto a0 = models::BuildRepVgg(models::RepVggVariant::kA0, mopts);
  ASSERT_TRUE(a0.ok());

  CompileOptions opts;
  opts.profiler_cost.num_threads = 4;
  opts.trace_path = path;
  auto engine = Engine::Compile(*a0, opts);
  ASSERT_TRUE(engine.ok());
  const TuningReport& report = engine->tuning_report();
  trace::TraceSink::Global().Stop();

  // Compile started the sink, so it flushed the trace; it must be
  // well-formed JSON.
  std::string json;
  ASSERT_TRUE(ReadFile(path, &json).ok());
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"boltMetrics\""), std::string::npos);
  EXPECT_NE(json.find("bolt.tuning (simulated)"), std::string::npos);

  const std::vector<Ev> evs = ParseEvents(json);
  ASSERT_FALSE(evs.empty());

  // Schema checks: known phases, globally non-decreasing timestamps, and
  // strict B/E stack discipline per (pid, tid) lane.
  double prev_ts = 0.0;
  std::map<std::pair<int, int>, std::vector<Ev>> stacks;
  std::set<int> tuning_lanes;
  double runtime_total_us = 0.0;
  double tuning_max_end_us = 0.0;
  for (const Ev& e : evs) {
    ASSERT_TRUE(e.ph == 'B' || e.ph == 'E' || e.ph == 'M') << e.ph;
    if (e.ph == 'M') continue;
    EXPECT_GE(e.ts, prev_ts) << e.name;
    prev_ts = e.ts;
    EXPECT_TRUE(e.pid == trace::kPidCompile || e.pid == trace::kPidTuning ||
                e.pid == trace::kPidRuntime)
        << e.pid;
    auto& stack = stacks[{e.pid, e.tid}];
    if (e.ph == 'B') {
      stack.push_back(e);
      continue;
    }
    ASSERT_FALSE(stack.empty()) << "unmatched E for " << e.name;
    EXPECT_EQ(stack.back().name, e.name);
    EXPECT_LE(stack.back().ts, e.ts);
    if (e.pid == trace::kPidRuntime) {
      runtime_total_us += e.ts - stack.back().ts;
    }
    if (e.pid == trace::kPidTuning) {
      tuning_lanes.insert(e.tid);
      tuning_max_end_us = std::max(tuning_max_end_us, e.ts);
    }
    stack.pop_back();
  }
  for (const auto& [lane, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unmatched B on pid " << lane.first
                               << " tid " << lane.second;
  }

  // Tuning lanes mirror the profiler's worker ids exactly.
  EXPECT_EQ(tuning_lanes, (std::set<int>{0, 1, 2, 3}));

  // The simulated launch timeline sums to the reported end-to-end latency
  // (ts serialized at 0.001us granularity, hence the tolerance).
  EXPECT_NEAR(runtime_total_us, engine->EstimatedLatencyUs(), 1.0);

  // The tuning lanes account for (at least) 95% of the reported simulated
  // tuning seconds — nothing the clock charged is missing from the trace.
  EXPECT_GE(tuning_max_end_us, 0.95 * report.seconds * 1e6);
  EXPECT_GT(report.seconds, 0.0);

  std::remove(path.c_str());
}

TEST(TraceTest, CompilesLeaveASinkTheyDidNotStartToItsOwner) {
  // A sink started elsewhere (here by the test, as BOLT_TRACE or a bench
  // would) is not rewritten after every compile; its owner flushes once.
  const std::string path = testing::TempDir() + "bolt_trace_owner.json";
  const std::string ignored = testing::TempDir() + "bolt_trace_ignored.json";
#ifdef __unix__
  unsetenv("BOLT_TRACE");  // the test owns the trace destination
#endif
  std::remove(path.c_str());
  std::remove(ignored.c_str());
  trace::TraceSink& sink = trace::TraceSink::Global();
  sink.Stop();
  sink.Start(path);

  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  Tensor w(TensorDesc(DType::kFloat32, {8, 16}));
  NodeId y = b.Dense(b.Input("x", {4, 16}), b.Constant("w", w));
  b.MarkOutput(b.Activation(y, ActivationKind::kRelu));
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  for (int i = 0; i < 20; ++i) {
    CompileOptions opts;
    // trace_path is a no-op while another owner's sink is running.
    if (i == 0) opts.trace_path = ignored;
    ASSERT_TRUE(Engine::Compile(*g, opts).ok());
  }
  EXPECT_GT(sink.event_count(), 0u);
  std::string json;
  EXPECT_FALSE(ReadFile(path, &json).ok()) << "a compile flushed the sink";
  EXPECT_FALSE(ReadFile(ignored, &json).ok());

  ASSERT_TRUE(sink.Flush().ok());
  ASSERT_TRUE(ReadFile(path, &json).ok());
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"LayoutTransformPass\""), std::string::npos);
  sink.Stop();
  std::remove(path.c_str());
}

TEST(TraceTest, DisabledSinkCollectsNothing) {
  trace::TraceSink& sink = trace::TraceSink::Global();
  sink.Stop();
  ASSERT_FALSE(sink.enabled());

  // Exercise every instrumented layer with tracing off.
  Profiler prof(DeviceSpec::TeslaT4());
  ASSERT_TRUE(
      prof.ProfileGemm(cutlite::GemmCoord(256, 256, 256),
                       cutlite::EpilogueSpec::Linear())
          .ok());
  sink.EmitSpan(trace::kPidCompile, 0, "ignored", "test", 0.0, 1.0);
  { trace::Span span(trace::kPidCompile, "ignored", "test"); }
  EXPECT_EQ(sink.event_count(), 0u);
  EXPECT_FALSE(sink.Flush().ok());
}

TEST(TraceTest, StartResetsAndStopDiscards) {
  trace::TraceSink& sink = trace::TraceSink::Global();
  sink.Start(testing::TempDir() + "bolt_trace_reset.json");
  sink.EmitSpan(trace::kPidCompile, 0, "a", "test", 0.0, 1.0);
  EXPECT_EQ(sink.event_count(), 2u);
  sink.Start(testing::TempDir() + "bolt_trace_reset2.json");
  EXPECT_EQ(sink.event_count(), 0u);  // restart resets the buffer
  sink.Stop();
  EXPECT_EQ(sink.event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CountersAreThreadSafeUnderParallelFor) {
  metrics::Counter& c =
      metrics::Registry::Global().GetCounter("test.parallel_counter");
  c.Reset();
  ThreadPool pool(8);
  pool.ParallelFor(10000, [&](int64_t) { c.Increment(); });
  EXPECT_EQ(c.value(), 10000);
  // Same name, same instrument: addresses are stable.
  EXPECT_EQ(&c, &metrics::Registry::Global().GetCounter(
                    "test.parallel_counter"));
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  metrics::Histogram& h =
      metrics::Registry::Global().GetHistogram("test.hist");
  h.Reset();
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0
  h.Observe(3.0);   // bucket 2: (2, 4]
  h.Observe(1e12);  // overflow -> last bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 3.0 + 1e12);
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(metrics::Histogram::kNumBuckets - 1), 1);
}

TEST(MetricsTest, DumpJsonIsValidJson) {
  metrics::Registry::Global().GetCounter("test.dump_counter").Increment(7);
  metrics::Registry::Global().GetHistogram("test.dump_hist").Observe(42.0);
  const std::string json = metrics::Registry::Global().DumpJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.dump_counter\":7"), std::string::npos) << json;
}

TEST(MetricsTest, DumpJsonEscapesHostileMetricNames) {
  // A quote or backslash in a metric name used to be interpolated raw
  // into the document, corrupting it.  Names reach the registry from
  // workload descriptions, so hostile characters are reachable in
  // practice.
  metrics::Registry::Global()
      .GetCounter("test.hostile.\"quote\\back\nnewline")
      .Increment();
  metrics::Registry::Global()
      .GetHistogram("test.hostile.hist\"\\")
      .Observe(1.0);
  const std::string json = metrics::Registry::Global().DumpJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("test.hostile.\\\"quote\\\\back"), std::string::npos)
      << json;
}

TEST(MetricsTest, HistogramRejectsNonFiniteObservations) {
  // NaN used to poison sum_ forever (NaN + x == NaN) and serialize as
  // bare `nan`/`inf`, which is not JSON.
  metrics::Histogram& h =
      metrics::Registry::Global().GetHistogram("test.nonfinite_hist");
  h.Reset();
  h.Observe(2.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(-std::numeric_limits<double>::infinity());
  h.Observe(3.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  const std::string json = metrics::Registry::Global().DumpJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(MetricsTest, ProfilerCountsCacheHitsAndMisses) {
  metrics::Counter& hits =
      metrics::Registry::Global().GetCounter("profiler.cache_hits");
  metrics::Counter& misses =
      metrics::Registry::Global().GetCounter("profiler.cache_misses");
  const int64_t hits_before = hits.value();
  const int64_t misses_before = misses.value();

  Profiler prof(DeviceSpec::TeslaT4());
  const cutlite::GemmCoord p(512, 512, 512);
  ASSERT_TRUE(prof.ProfileGemm(p, cutlite::EpilogueSpec::Linear()).ok());
  ASSERT_TRUE(prof.ProfileGemm(p, cutlite::EpilogueSpec::Linear()).ok());
  EXPECT_EQ(misses.value(), misses_before + 1);
  EXPECT_EQ(hits.value(), hits_before + 1);
}

}  // namespace
}  // namespace bolt
