// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Pipeline tracing: Chrome trace_event JSON spans for the whole
// compile -> profile -> execute pipeline.
//
// Bolt's pitch over black-box auto-tuners is that hardware-native tuning
// is *inspectable*: every pass and every measured candidate has an
// explainable cost.  This module makes that cost visible.  When tracing is
// enabled (CompileOptions::trace_path or the BOLT_TRACE environment
// variable), the engine, the profiler, and the simulated runtime emit
// spans into a global TraceSink, which flushes a Chrome trace_event JSON
// file loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Six process lanes coexist in one trace (see docs/OBSERVABILITY.md):
//
//   pid kPidCompile  "bolt.compile"   — real wall-clock time of the
//                                       compile passes (one span each).
//   pid kPidTuning   "bolt.tuning"    — *simulated* TuningClock time; one
//                                       span per workload per measurement
//                                       worker lane (tid == worker id,
//                                       matching the deterministic
//                                       round-robin accounting).
//   pid kPidRuntime  "bolt.runtime"   — *simulated* launch timeline; one
//                                       span per kernel at its estimated
//                                       latency, summing to
//                                       Engine::EstimatedLatencyUs().
//   pid kPidCpu      "bolt.cpu"       — real wall-clock time of the CPU
//                                       execution backend; one span per
//                                       GEMM/conv kernel launch
//                                       (docs/CPU_BACKEND.md).
//   pid kPidCpuTune  "bolt.cpu.tune"  — real wall-clock time of CPU
//                                       blocking autotuning; one span per
//                                       tuned workload covering its
//                                       candidate sweep.
//   pid kPidServe    "bolt.serve"     — real wall-clock time of the
//                                       dynamic-batching serving layer;
//                                       one span per batched execution
//                                       (docs/SERVING.md).
//
// Overhead discipline: when tracing is disabled every entry point is a
// single relaxed atomic load.  Instrumentation sites emit at workload /
// pass granularity only — the per-candidate measurement hot loop is trace-
// free by construction (bench_parallel_tuning asserts this).

#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace bolt {
namespace trace {

/// Process lanes of the pipeline trace.
inline constexpr int kPidCompile = 1;
inline constexpr int kPidTuning = 2;
inline constexpr int kPidRuntime = 3;
inline constexpr int kPidCpu = 4;
inline constexpr int kPidCpuTune = 5;
inline constexpr int kPidServe = 6;

/// One Chrome trace_event record.  `args` is a pre-rendered JSON object
/// ("{...}") or empty.
struct Event {
  char ph = 'B';  // 'B' begin, 'E' end, 'M' metadata
  double ts_us = 0.0;
  int pid = 0;
  int tid = 0;
  std::string name;
  std::string cat;
  std::string args;
};

/// Escapes a string for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s);

/// Thread-safe collector for trace events.  One global instance; cheap
/// (single relaxed atomic load) when disabled.
class TraceSink {
 public:
  static TraceSink& Global();

  /// Enables collection and remembers the output path.  Resets any
  /// previously collected events.
  void Start(std::string path);
  /// Disables collection and discards events.
  void Stop();
  /// Starts from the BOLT_TRACE environment variable if it is set and the
  /// sink is not already enabled, and registers (once) an exit hook that
  /// flushes the sink if it is still enabled when the process exits.  Safe
  /// to call often.
  static void InitFromEnv();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  std::string path() const;
  size_t event_count() const;

  /// Appends one event; no-op when disabled.
  void Emit(Event e);
  /// Emits a matched B/E pair on the given lane.  `args` rides on the 'B'
  /// event.  Events must be emitted in chronological begin order per
  /// (pid, tid) lane for correct nesting (all instrumentation sites do).
  void EmitSpan(int pid, int tid, const std::string& name,
                const std::string& cat, double begin_us, double end_us,
                const std::string& args = "");

  /// Microseconds since Start() on a steady clock (real-time lanes).
  double NowUs() const;
  /// Small stable integer lane for the calling thread (real-time lanes).
  int CurrentThreadLane();
  /// Allocates the next simulated-runtime timeline lane (one per traced
  /// RuntimeModule, so repeated compiles do not overlap at ts 0).
  int NextRuntimeLane();

  /// Serializes the Chrome trace JSON (plus a metrics-registry snapshot
  /// under "boltMetrics") to `out`, events sorted by timestamp with
  /// process/thread metadata synthesized up front.
  Status WriteTo(std::ostream& out) const;
  /// Writes the JSON to path() atomically (temp file + rename) so a
  /// concurrent reader never observes a torn trace.  Collection continues;
  /// flushing again rewrites the file with the fuller event set.
  Status Flush() const;

 private:
  TraceSink() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::string path_;
  std::vector<Event> events_;
  std::chrono::steady_clock::time_point start_time_;
  std::map<std::thread::id, int> thread_lanes_;
  std::atomic<int> next_runtime_lane_{0};
};

/// RAII real-time span: emits 'B' at construction and 'E' at destruction
/// on the calling thread's lane.  No-op when the sink is disabled.
class Span {
 public:
  Span(int pid, std::string name, std::string cat,
       std::string begin_args = "");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  int pid_ = 0;
  int tid_ = 0;
  std::string name_;
  std::string cat_;
};

}  // namespace trace
}  // namespace bolt
