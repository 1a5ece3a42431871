// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "workloads.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bolt/engine.h"
#include "common/rng.h"
#include "common/trace.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"
#include "ir/interpreter.h"
#include "models/zoo.h"
#include "probe.h"
#include "serve/server.h"

namespace perfbench {

using bolt::CompileOptions;
using bolt::DType;
using bolt::Engine;
using bolt::Graph;
using bolt::GraphBuilder;
using bolt::Layout;
using bolt::NodeId;
using bolt::Result;
using bolt::Rng;
using bolt::Tensor;
using bolt::TensorDesc;

namespace {

// The tolerance test_engine.cc allows an engine output against the
// per-op reference (fused epilogues keep FP32 until the final store).
constexpr float kEngineTolerance = 5e-3f;
// bench_serving's SIMD-tier bound for the FP32 serving MLP; the scalar
// tier must be bit-exact.
constexpr float kServeSimdTolerance = 1e-5f;

// ---------------------------------------------------------------------
// Shared helpers

std::string TracePath(const Options& o, const char* what) {
  return o.trace_dir + "/trace_" + what + ".json";
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.desc() == b.desc() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

bool BitEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

/// Flips the lowest mantissa bit of the first element (self-test).
void Perturb(Tensor& t) {
  uint32_t bits = 0;
  std::memcpy(&bits, t.data().data(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(t.data().data(), &bits, sizeof(bits));
}

Tensor SeededTensor(TensorDesc desc, Rng& rng, float stddev) {
  Tensor t(std::move(desc));
  rng.FillNormal(t.data(), stddev);
  t.Quantize();
  return t;
}

/// Weight [rows, fan_in] (or bias when fan_in == 0) with Kaiming-style
/// scale.
Tensor Fp32Weight(std::vector<int64_t> shape, Rng& rng) {
  const int64_t fan_in = shape.size() > 1 ? shape.back() : 0;
  const float stddev =
      fan_in > 0 ? 1.0f / std::sqrt(static_cast<float>(fan_in)) : 0.02f;
  return SeededTensor(TensorDesc(DType::kFloat32, std::move(shape)), rng,
                      stddev);
}

/// Uniform double in [0, 1) from 53 random bits.
double Uniform01(Rng& rng) {
  return static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
}

std::string EnvJson() {
  JsonObject env;
  env.Str("isa", bolt::cpukernels::CpuIsaName(bolt::cpukernels::ResolveCpuIsa(
                     bolt::cpukernels::CpuIsa::kAuto)))
      .Int("threads", bolt::cpukernels::DefaultNumThreads())
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("backend", bolt::cpukernels::BackendName(
                          bolt::cpukernels::DefaultBackend()));
  return env.str();
}

/// Graph statistics of a compiled engine, plus the pointwise convs whose
/// launches cpukernels records twice (cpu.conv.* and, through GemmRaw,
/// cpu.gemm.*).
std::string GraphJson(const Engine& engine) {
  const Graph& g = engine.optimized_graph();
  double const_bytes = 0.0;
  for (const auto& [id, t] : g.constants()) {
    const_bytes += static_cast<double>(t.data().size() * sizeof(float));
  }
  int64_t pointwise = 0;
  double pointwise_flops = 0.0;
  for (const bolt::Node& n : g.nodes()) {
    if (n.kind != bolt::OpKind::kBoltConv2d) continue;
    const bolt::cutlite::ConvProblem p = bolt::ConvProblemOf(g, n);
    if (p.r == 1 && p.s == 1 && p.stride_h == 1 && p.stride_w == 1 &&
        p.pad_h == 0 && p.pad_w == 0) {
      ++pointwise;
      pointwise_flops += p.flops();
    }
  }
  const bolt::PassStats& ps = engine.tuning_report().pass_stats;
  JsonObject o;
  o.Int("nodes_after", g.num_nodes())
      .Int("constants", static_cast<int64_t>(g.constants().size()))
      .Num("const_mb", const_bytes / 1e6)
      .Int("layout_transforms", ps.layout_transforms_inserted)
      .Int("epilogues_fused", ps.epilogues_fused)
      .Int("batchnorms_folded", ps.batchnorms_folded)
      .Int("pointwise_convs", pointwise)
      .Num("pointwise_flops", pointwise_flops);
  return o.str();
}

struct SetupSample {
  double setup_s = 0.0;
  double build_ms = 0.0;
  double compile_ms = 0.0;
  Snapshot registry;

  std::string Json() const {
    JsonObject o;
    o.Num("setup_s", setup_s)
        .Num("build_ms", build_ms)
        .Num("compile_ms", compile_ms)
        .Map("registry", registry);
    return o.str();
  }
};

/// Starts the trace sink on `path` when tracing (no-op otherwise).
void StartTrace(const Options& o, const char* what) {
  if (o.trace) bolt::trace::TraceSink::Global().Start(TracePath(o, what));
}

/// Writes and stops the trace sink (no-op when tracing is off).
bool StopTrace(const Options& o, std::string* error) {
  bolt::trace::TraceSink& sink = bolt::trace::TraceSink::Global();
  if (!o.trace || !sink.enabled()) return true;
  const bolt::Status st = sink.Flush();
  sink.Stop();
  if (!st.ok()) {
    *error = "trace flush failed: " + st.ToString();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Closed loop: one caller runs Engine::Run back to back.

struct ClosedLoopModel {
  std::function<Result<Graph>()> build;
  std::map<std::string, Tensor> inputs;
  int64_t rows_per_op = 1;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 5;
};

ClosedLoopModel ResNet18B1(uint64_t seed) {
  bolt::models::ModelOptions mo;
  mo.batch = 1;
  mo.image_size = 56;
  mo.num_classes = 1000;
  mo.dtype = DType::kFloat16;
  mo.layout = Layout::kNCHW;
  mo.materialize_weights = true;
  mo.seed = seed;
  ClosedLoopModel m;
  m.build = [mo] { return bolt::models::BuildResNetWithBatchNorm(18, mo); };
  Rng rng(seed ^ 0x1A6E5EEDULL);
  m.inputs.emplace("data",
                   SeededTensor(TensorDesc(DType::kFloat16, {1, 3, 56, 56},
                                           Layout::kNCHW),
                                rng, 1.0f));
  return m;
}

/// One BERT-base encoder layer's GEMMs at 256 rows: QKV 768->2304 + bias,
/// FFN 768->3072 + bias + GELU, then 3072->768 + bias + residual.
ClosedLoopModel BertM256(uint64_t seed) {
  constexpr int64_t kRows = 256, kHidden = 768, kQkv = 2304, kFfn = 3072;
  ClosedLoopModel m;
  m.rows_per_op = kRows;
  m.setup_reps = 9;  // ~0.4 s each
  m.build = [seed]() -> Result<Graph> {
    Rng rng(seed);
    GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
    const NodeId x = b.Input("x", {kRows, kHidden});
    auto weight = [&](const char* name, std::vector<int64_t> shape) {
      return b.Constant(name, Fp32Weight(std::move(shape), rng));
    };
    NodeId qkv = b.Dense(x, weight("w_qkv", {kQkv, kHidden}), "qkv");
    qkv = b.BiasAdd(qkv, weight("b_qkv", {kQkv}));
    NodeId h = b.Dense(x, weight("w_ffn1", {kFfn, kHidden}), "ffn1");
    h = b.BiasAdd(h, weight("b_ffn1", {kFfn}));
    h = b.Activation(h, bolt::ActivationKind::kGelu);
    NodeId y = b.Dense(h, weight("w_ffn2", {kHidden, kFfn}), "ffn2");
    y = b.BiasAdd(y, weight("b_ffn2", {kHidden}));
    y = b.Add(y, x);
    b.MarkOutput(qkv);
    b.MarkOutput(y);
    return b.Build();
  };
  Rng rng(seed ^ 0xBE27ULL);
  m.inputs.emplace("x", SeededTensor(TensorDesc(DType::kFloat32,
                                                {kRows, kHidden},
                                                Layout::kRowMajor),
                                     rng, 1.0f));
  return m;
}

/// A single 1x1 stride-1 unpadded NHWC conv: cpukernels runs it through
/// GemmRaw, so the registry sees it in both cpu.conv.* and cpu.gemm.*.
ClosedLoopModel PointwiseConv(uint64_t seed) {
  ClosedLoopModel m;
  m.build = [seed]() -> Result<Graph> {
    Rng rng(seed);
    GraphBuilder b(DType::kFloat16, Layout::kNHWC);
    const NodeId x = b.Input("data", {1, 16, 16, 64});
    const NodeId w = b.Constant(
        "w", SeededTensor(TensorDesc(DType::kFloat16, {64, 1, 1, 64}), rng,
                          0.125f));
    b.MarkOutput(b.Conv2d(x, w, bolt::Conv2dAttrs{}, "pointwise"));
    return b.Build();
  };
  Rng rng(seed ^ 0x9017ULL);
  m.inputs.emplace("data",
                   SeededTensor(TensorDesc(DType::kFloat16, {1, 16, 16, 64},
                                           Layout::kNHWC),
                                rng, 1.0f));
  return m;
}

struct ClosedPhase {
  std::string name;
  bool traced = false;
  std::vector<double> latency_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  Snapshot registry;

  std::string Json() const {
    JsonObject o;
    o.Str("name", name)
        .Bool("traced", traced)
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Num("wall_s", wall_s)
        .List("latency_us", latency_us)
        .Map("registry", registry);
    return o.str();
  }
};

ClosedPhase RunClosedPhase(const Engine& engine, const ClosedLoopModel& m,
                           const std::vector<Tensor>& expected,
                           double seconds, bool traced,
                           int64_t perturb_op) {
  ClosedPhase ph;
  ph.name = "closed";
  ph.traced = traced;
  const Snapshot before = TakeSnapshot();
  const double tb_start = TraceNowUs();
  const double t_start = NowUs();
  const double t_end = t_start + seconds * 1e6;
  // At least three operations, so a median exists even when one Run
  // outlasts the whole budget.
  while (NowUs() < t_end || ph.attempted < 3) {
    const double tb0 = TraceNowUs();
    const double t0 = NowUs();
    Result<std::vector<Tensor>> out = engine.Run(m.inputs);
    const double t1 = NowUs();
    EmitBenchSpan("Engine::Run", tb0, TraceNowUs());
    const int64_t op = ph.attempted++;
    if (!out.ok()) {
      ++ph.failed;
      continue;
    }
    if (op == perturb_op && !out->empty()) Perturb((*out)[0]);
    if (!BitEqual(*out, expected)) {
      ++ph.failed;
      continue;
    }
    ph.latency_us.push_back(t1 - t0);
  }
  ph.wall_s = (NowUs() - t_start) / 1e6;
  ph.registry = Delta(before, TakeSnapshot());
  EmitBenchSpan("phase/" + ph.name, tb_start, TraceNowUs());
  return ph;
}

bool RunClosedLoop(const Options& o, const ClosedLoopModel& m,
                   std::string* report, std::string* error) {
  StartTrace(o, "setup");
  std::vector<SetupSample> setups;
  std::unique_ptr<Engine> engine;
  Result<Graph> graph = bolt::Status::Internal("no set-up ran");
  for (int rep = 0; rep < m.setup_reps; ++rep) {
    engine.reset();
    graph = bolt::Status::Internal("released");
    SetupSample s;
    const Snapshot before = TakeSnapshot();
    const double tb0 = TraceNowUs();
    const double t0 = NowUs();
    graph = m.build();
    const double tb1 = TraceNowUs();
    const double t1 = NowUs();
    if (!graph.ok()) {
      *error = "model build failed: " + graph.status().ToString();
      return false;
    }
    Result<Engine> compiled = Engine::Compile(*graph, CompileOptions{});
    const double t2 = NowUs();
    const double tb2 = TraceNowUs();
    if (!compiled.ok()) {
      *error = "compile failed: " + compiled.status().ToString();
      return false;
    }
    engine = std::make_unique<Engine>(std::move(compiled).value());
    s.setup_s = (t2 - t0) / 1e6;
    s.build_ms = (t1 - t0) / 1e3;
    s.compile_ms = (t2 - t1) / 1e3;
    s.registry = Delta(before, TakeSnapshot());
    EmitBenchSpan("models::Build", tb0, tb1);
    EmitBenchSpan("Engine::Compile", tb1, tb2);
    EmitBenchSpan("setup", tb0, tb2);
    setups.push_back(std::move(s));
  }

  // Correctness gate: two warm-up Runs must agree bit for bit, and the
  // first must match the naive reference within test_engine's tolerance.
  int64_t gate_failures = 0;
  Result<std::vector<Tensor>> warm = engine->Run(m.inputs);
  if (!warm.ok()) {
    *error = "warm-up Run failed: " + warm.status().ToString();
    return false;
  }
  Result<std::vector<Tensor>> warm2 = engine->Run(m.inputs);
  if (!warm2.ok() || !BitEqual(*warm2, *warm)) ++gate_failures;
  double ref_diff = 0.0;
  {
    const bolt::RefExecutor ref(*graph);
    Result<std::vector<Tensor>> want = ref.Run(m.inputs);
    if (!want.ok() || want->size() != warm->size()) {
      ++gate_failures;
    } else {
      for (size_t i = 0; i < want->size(); ++i) {
        if ((*want)[i].num_elements() != (*warm)[i].num_elements()) {
          ++gate_failures;
          continue;
        }
        ref_diff = std::max<double>(ref_diff,
                                    (*warm)[i].MaxAbsDiff((*want)[i]));
      }
      if (!(ref_diff <= kEngineTolerance)) ++gate_failures;
    }
  }
  const std::string graph_json = GraphJson(*engine);
  graph = bolt::Status::Internal("released");
  malloc_trim(0);
  if (!StopTrace(o, error)) return false;

  std::vector<ClosedPhase> phases;
  double peak_rss_mb = 0.0;
  {
    RssSampler rss;
    // Traced runs split the budget: an untraced half (for the tracing
    // overhead) and a traced half (for the per-layer numbers).
    const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
    phases.push_back(RunClosedPhase(*engine, m, *warm, untraced_s, false,
                                    o.perturb_op));
    if (o.trace) {
      StartTrace(o, "run");
      phases.push_back(RunClosedPhase(*engine, m, *warm, o.seconds / 2, true,
                                      -1));
      if (!StopTrace(o, error)) return false;
    }
    peak_rss_mb = rss.peak_mb();
  }

  int64_t attempted = 0, failed = gate_failures;
  std::vector<std::string> setup_items, phase_items;
  for (const SetupSample& s : setups) setup_items.push_back(s.Json());
  for (const ClosedPhase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    phase_items.push_back(p.Json());
  }
  JsonObject r;
  r.Str("workload", o.workload)
      .Int("seed", static_cast<int64_t>(o.seed))
      .Bool("trace", o.trace)
      .Str("loop", "closed")
      .Int("rows_per_op", m.rows_per_op)
      .Raw("env", EnvJson())
      .Raw("setups", JsonArray(setup_items))
      .Raw("graph", graph_json)
      .Num("ref_max_abs_diff", ref_diff)
      .Int("gate_failures", gate_failures)
      .Raw("phases", JsonArray(phase_items))
      .Num("peak_rss_mb", peak_rss_mb)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Bool("correct", failed == 0);
  *report = r.str();
  return true;
}

// ---------------------------------------------------------------------
// Open loop: the serving MLP behind serve::Server.

constexpr int64_t kMlpIn = 64, kMlpHidden = 256, kMlpOut = 64;
constexpr int kPayloads = 256;
constexpr double kLightRate = 2000.0, kHeavyRate = 16000.0;
constexpr double kLightShare = 0.3;  // of the measured seconds
// Set-up repetitions (setup_s is their median).  One takes ~10 ms, and
// the machine's speed shifts every second or so, so the repetitions span
// a few seconds.
constexpr int kServeSetupReps = 301;

/// bench_serving's MLP (64 -> 256 + bias + ReLU -> 64 -> softmax), with
/// weights drawn from `seed`.
Result<Graph> BuildMlp(int64_t batch, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  const NodeId x = b.Input("x", {batch, kMlpIn});
  NodeId y = b.Dense(x, b.Constant("w0", Fp32Weight({kMlpHidden, kMlpIn}, rng)),
                     "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({kMlpHidden}, rng)));
  y = b.Activation(y, bolt::ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({kMlpOut, kMlpHidden}, rng)),
              "fc1");
  y = b.Softmax(y);
  b.MarkOutput(y);
  return b.Build();
}

struct Schedule {
  std::vector<double> due_us;  // offsets from the phase start
  std::vector<int> payload;
};

/// Poisson arrivals at `rate` over `seconds`, payloads drawn uniformly.
Schedule MakeSchedule(uint64_t seed, double rate, double seconds) {
  Rng rng(seed);
  Schedule s;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-Uniform01(rng)) * 1e6 / rate;
    if (t > seconds * 1e6) break;
    s.due_us.push_back(t);
    s.payload.push_back(static_cast<int>(rng.NextU64() % kPayloads));
  }
  return s;
}

/// Per-request bookkeeping of one open-loop phase.  It is allocated, and
/// its pages touched, before the RSS sampler starts, and what it adds to
/// the resident set is left out of peak_rss_mb: the figure is the
/// server's memory, not the generator's arrays, which grow with the run
/// length.
struct PhaseBuffers {
  explicit PhaseBuffers(Schedule s)
      : sched(std::move(s)),
        futures(sched.due_us.size()),
        sent_ok(sched.due_us.size(), 0),
        done_us(sched.due_us.size(), -1.0),
        late_us(sched.due_us.size(), 0.0) {}

  Schedule sched;
  std::vector<bolt::serve::Server::ResponseFuture> futures;
  std::vector<char> sent_ok;
  std::vector<double> done_us;  // completion offsets; -1 = failed
  std::vector<double> late_us;  // sender lateness per request
};

struct ServePhase {
  std::string name;
  bool traced = false;
  double rate = 0.0;
  double seconds = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed_by_end = 0;
  double submit_us_sum = 0.0;
  std::vector<double> latency_us;  // from the scheduled send time
  std::vector<double> late_us;     // sender lateness per request
  // latency_us.size() at the end of each whole second of the schedule.
  std::vector<double> window_marks;
  std::vector<double> backlog;     // due - completed at 20 even points
  Snapshot registry;

  std::string Json() const {
    JsonObject o;
    o.Str("name", name)
        .Bool("traced", traced)
        .Num("rate", rate)
        .Num("seconds", seconds)
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Int("completed_by_end", completed_by_end)
        .Num("submit_us_sum", submit_us_sum)
        .List("latency_us", latency_us)
        .List("late_us", late_us)
        .List("backlog", backlog)
        .List("window_marks", window_marks)
        .Map("registry", registry);
    return o.str();
  }
};

/// Lets a sleeping generator thread wake within microseconds of its
/// deadline instead of the default 50 us timer slack.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Sends `buf.sched` through the server and receives every response into
/// `buf`; the latencies are derived afterwards by Summarize().
ServePhase RunServePhase(bolt::serve::Server& server, const char* name,
                         PhaseBuffers& buf,
                         const std::vector<Tensor>& payloads,
                         const std::vector<Tensor>& expected, double rate,
                         double seconds, bool traced, int64_t perturb_op) {
  using Future = bolt::serve::Server::ResponseFuture;
  ServePhase ph;
  ph.name = name;
  ph.traced = traced;
  ph.rate = rate;
  ph.seconds = seconds;
  const Schedule& sched = buf.sched;
  const size_t n = sched.due_us.size();
  ph.attempted = static_cast<int64_t>(n);
  std::vector<Future>& futures = buf.futures;
  std::vector<char>& sent_ok = buf.sent_ok;
  std::vector<double>& done_us = buf.done_us;
  std::vector<double>& late_us = buf.late_us;
  std::atomic<size_t> published{0};
  std::atomic<int64_t> failed{0};
  const Snapshot before = TakeSnapshot();
  const double tb_start = TraceNowUs();
  const double t0 = NowUs() + 1000.0;

  std::thread sender([&] {
    TightenTimerSlack();
    for (size_t i = 0; i < n; ++i) {
      const double due = t0 + sched.due_us[i];
      for (double now = NowUs(); now < due; now = NowUs()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(due - now));
      }
      const double s0 = NowUs();
      late_us[i] = s0 - due;
      try {
        auto f = server.Submit("mlp", payloads[sched.payload[i]]);
        if (f.ok()) {
          futures[i] = std::move(*f);
          sent_ok[i] = 1;
        }
      } catch (const std::exception&) {
        // Counted as a failed request by the receiver.
      }
      ph.submit_us_sum += NowUs() - s0;
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });
  std::thread receiver([&] {
    TightenTimerSlack();
    for (size_t i = 0; i < n; ++i) {
      // Blocks (no polling) until the sender has published request i.
      for (size_t p = published.load(std::memory_order_acquire); p <= i;
           p = published.load(std::memory_order_acquire)) {
        published.wait(p, std::memory_order_acquire);
      }
      if (!sent_ok[i]) {
        failed.fetch_add(1);
        continue;
      }
      try {
        Result<std::vector<Tensor>> out = futures[i].get();
        const double t = NowUs();
        futures[i] = Future();
        if (!out.ok() || out->empty()) {
          failed.fetch_add(1);
          continue;
        }
        if (static_cast<int64_t>(i) == perturb_op) Perturb((*out)[0]);
        if (!BitEqual((*out)[0], expected[sched.payload[i]])) {
          failed.fetch_add(1);
          continue;
        }
        done_us[i] = t - t0;
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    }
  });
  sender.join();
  receiver.join();
  ph.registry = Delta(before, TakeSnapshot());
  EmitBenchSpan("phase/" + ph.name, tb_start, TraceNowUs());
  ph.failed = failed.load();
  return ph;
}

/// Derives the latencies, one-second window marks, completions and
/// backlog of a finished phase from its buffers.
void Summarize(const PhaseBuffers& buf, ServePhase* ph) {
  const std::vector<double>& due_us = buf.sched.due_us;
  std::vector<double> done_sorted;
  for (size_t i = 0; i < due_us.size(); ++i) {
    while (due_us[i] >= 1e6 * (ph->window_marks.size() + 1)) {
      ph->window_marks.push_back(static_cast<double>(ph->latency_us.size()));
    }
    if (buf.done_us[i] < 0.0) continue;
    ph->latency_us.push_back(buf.done_us[i] - due_us[i]);
    done_sorted.push_back(buf.done_us[i]);
  }
  std::sort(done_sorted.begin(), done_sorted.end());
  const auto count_le = [](const std::vector<double>& v, double t) {
    return static_cast<double>(
        std::upper_bound(v.begin(), v.end(), t) - v.begin());
  };
  const double window_us = ph->seconds * 1e6;
  ph->completed_by_end =
      static_cast<int64_t>(count_le(done_sorted, window_us));
  for (int j = 1; j <= 20; ++j) {
    const double t = window_us * j / 20.0;
    ph->backlog.push_back(count_le(due_us, t) - count_le(done_sorted, t));
  }
  ph->late_us = buf.late_us;
}

bool RunServing(const Options& o, std::string* report, std::string* error) {
  bolt::serve::ServerOptions so;
  so.queue_capacity = 1024;
  so.engine_cache_capacity = 8;
  so.batcher.max_wait_us = 100;
  so.batcher.num_workers = 2;
  const std::vector<int64_t> buckets = {1, 2, 4, 8};
  const uint64_t weight_seed = o.seed * 0x9E3779B97F4A7C15ULL + 1;

  StartTrace(o, "setup");
  std::vector<SetupSample> setups;
  std::unique_ptr<bolt::serve::Server> server;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    server.reset();
    SetupSample s;
    auto build_us = std::make_shared<std::atomic<double>>(0.0);
    const Snapshot before = TakeSnapshot();
    const double tb0 = TraceNowUs();
    const double t0 = NowUs();
    server = std::make_unique<bolt::serve::Server>(so);
    bolt::serve::ModelSpec spec;
    spec.name = "mlp";
    spec.build_graph = [weight_seed, build_us](int64_t batch) {
      const double tb = TraceNowUs();
      const double b0 = NowUs();
      Result<Graph> g = BuildMlp(batch, weight_seed);
      build_us->fetch_add(NowUs() - b0);
      EmitBenchSpan("models::Build", tb, TraceNowUs());
      return g;
    };
    auto policy = bolt::serve::BucketPolicy::Create(buckets);
    if (!policy.ok()) {
      *error = "bucket policy: " + policy.status().ToString();
      return false;
    }
    spec.buckets = std::move(policy).value();
    bolt::Status st = server->RegisterModel(std::move(spec));
    if (st.ok()) st = server->Start();
    if (!st.ok()) {
      *error = "server set-up failed: " + st.ToString();
      return false;
    }
    const bolt::serve::PrewarmStats warm = server->Prewarm();
    const double t1 = NowUs();
    EmitBenchSpan("setup", tb0, TraceNowUs());
    if (warm.failed != 0 ||
        warm.compiled != static_cast<int>(buckets.size())) {
      *error = "prewarm did not compile every bucket";
      return false;
    }
    s.setup_s = (t1 - t0) / 1e6;
    s.build_ms = build_us->load() / 1e3;
    s.compile_ms = 0.0;  // inside Prewarm; run.py reads the compile lane
    s.registry = Delta(before, TakeSnapshot());
    setups.push_back(std::move(s));
  }

  // Correctness gate: every payload once through the server, checked
  // against the per-request reference under the two-tier contract; the
  // served output becomes the payload's expected bits.
  int64_t gate_failures = 0;
  double ref_diff = 0.0;
  std::vector<Tensor> payloads, expected;
  {
    Result<Graph> g1 = BuildMlp(1, weight_seed);
    if (!g1.ok()) {
      *error = "model build failed: " + g1.status().ToString();
      return false;
    }
    const bolt::RefExecutor ref(*g1);
    const bool scalar = bolt::cpukernels::ResolveCpuIsa(
                            bolt::cpukernels::CpuIsa::kAuto) ==
                        bolt::cpukernels::CpuIsa::kScalar;
    Rng rng(o.seed ^ 0xA11CEULL);
    for (int p = 0; p < kPayloads; ++p) {
      payloads.push_back(SeededTensor(
          TensorDesc(DType::kFloat32, {1, kMlpIn}, Layout::kRowMajor), rng,
          0.7f));
      Result<std::vector<Tensor>> got = bolt::Status::Internal("not run");
      auto f = server->Submit("mlp", payloads.back());
      if (f.ok()) got = f->get();
      Result<std::vector<Tensor>> want = ref.Run({{"x", payloads.back()}});
      if (!got.ok() || !want.ok() || got->empty() || want->empty()) {
        *error = "reference check could not run";
        return false;
      }
      const double diff = (*got)[0].MaxAbsDiff((*want)[0]);
      ref_diff = std::max(ref_diff, diff);
      if (scalar ? diff != 0.0 : !(diff <= kServeSimdTolerance)) {
        ++gate_failures;
      }
      expected.push_back((*got)[0]);
    }
  }
  if (!StopTrace(o, error)) return false;

  // Traced runs split the budget into an untraced and a traced pass, each
  // a light phase then a heavy one.
  const int passes = o.trace ? 2 : 1;
  const double budget = o.seconds / passes;
  const double light_s = budget * kLightShare;
  const double heavy_s = budget - light_s;
  malloc_trim(0);
  const double rss_before_mb = ResidentMb();
  std::vector<PhaseBuffers> buffers;
  buffers.reserve(2 * passes);
  for (int pass = 0; pass < passes; ++pass) {
    buffers.emplace_back(
        MakeSchedule(o.seed * 1000003ULL + 2 * pass, kLightRate, light_s));
    buffers.emplace_back(MakeSchedule(o.seed * 1000003ULL + 2 * pass + 1,
                                      kHeavyRate, heavy_s));
  }
  const double bookkeeping_mb = ResidentMb() - rss_before_mb;

  std::vector<ServePhase> phases;
  double peak_rss_mb = 0.0;
  {
    RssSampler rss;
    for (int pass = 0; pass < passes; ++pass) {
      const bool traced = pass == 1;
      if (traced) StartTrace(o, "run");
      phases.push_back(RunServePhase(*server, "light", buffers[2 * pass],
                                     payloads, expected, kLightRate, light_s,
                                     traced, traced ? -1 : o.perturb_op));
      phases.push_back(RunServePhase(*server, "heavy", buffers[2 * pass + 1],
                                     payloads, expected, kHeavyRate, heavy_s,
                                     traced, -1));
      if (traced && !StopTrace(o, error)) return false;
    }
    peak_rss_mb = rss.peak_mb() - bookkeeping_mb;
  }
  server->Stop();
  for (size_t i = 0; i < phases.size(); ++i) Summarize(buffers[i], &phases[i]);

  int64_t attempted = 0, failed = gate_failures;
  std::vector<std::string> setup_items, phase_items;
  for (const SetupSample& s : setups) setup_items.push_back(s.Json());
  for (const ServePhase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    phase_items.push_back(p.Json());
  }
  JsonObject r;
  r.Str("workload", o.workload)
      .Int("seed", static_cast<int64_t>(o.seed))
      .Bool("trace", o.trace)
      .Str("loop", "open")
      .Int("rows_per_op", 1)
      .Raw("env", EnvJson())
      .Raw("setups", JsonArray(setup_items))
      .Num("ref_max_abs_diff", ref_diff)
      .Int("gate_failures", gate_failures)
      .Raw("phases", JsonArray(phase_items))
      .Num("peak_rss_mb", peak_rss_mb)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Bool("correct", failed == 0);
  *report = r.str();
  return true;
}

}  // namespace

bool RunWorkload(const Options& options, std::string* report,
                 std::string* error) {
  if (options.workload == "resnet18_b1") {
    return RunClosedLoop(options, ResNet18B1(options.seed), report, error);
  }
  if (options.workload == "bert_m256") {
    return RunClosedLoop(options, BertM256(options.seed), report, error);
  }
  if (options.workload == "pointwise_conv") {
    return RunClosedLoop(options, PointwiseConv(options.seed), report, error);
  }
  if (options.workload == "mlp_serve") {
    return RunServing(options, report, error);
  }
  *error = "unknown workload: " + options.workload;
  return false;
}

}  // namespace perfbench
