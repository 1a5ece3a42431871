// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The Bolt engine: the end-to-end BYOC pipeline of Figure 3.
//
//   model graph -> [layout transform] -> [epilogue fusion] -> [persistent
//   kernel fusion] -> [padding] -> BYOC partition -> hardware-native
//   profiling -> templated code generation -> runtime module
//
// The compiled Engine can (a) report its simulated end-to-end latency on
// the target device, (b) execute the model functionally (validated against
// the reference interpreter), and (c) report how long tuning took on the
// simulated tuning clock (Fig. 10b).

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bolt/passes.h"
#include "codegen/module.h"
#include "device/spec.h"
#include "ir/graph.h"
#include "ir/interpreter.h"
#include "ir/partition.h"
#include "profiler/profiler.h"

namespace bolt {

struct CompileOptions {
  DeviceSpec device = DeviceSpec::TeslaT4();
  bool enable_epilogue_fusion = true;
  bool enable_persistent_fusion = true;
  bool enable_padding = true;
  ProfilerCostModel profiler_cost;
  /// Optional shared profiler. When set, its best-config cache (and its
  /// one-time per-architecture preparation cost) is reused across model
  /// compilations — the paper's cross-model workload reuse. The tuning
  /// report then charges only the *additional* time this compile caused.
  Profiler* shared_profiler = nullptr;
  /// When non-empty, enables pipeline tracing and flushes a Chrome
  /// trace_event JSON file here after a successful compile (see
  /// docs/OBSERVABILITY.md).  The BOLT_TRACE environment variable traces
  /// without touching code and writes its file once, at process exit.
  /// No-op if tracing is already enabled: whoever started the sink
  /// flushes it.
  std::string trace_path;
  /// Autotune the CPU kernel blockings for this graph's GEMM / conv
  /// problems (Profiler::ProfileCpuGemm / ProfileCpuConv): measure the
  /// architecture-plausible candidates on the real packed kernels and
  /// publish the winners to the process-wide tuned-block registry that
  /// Run() and the interpreter consult.  Real wall-clock measurement —
  /// off by default; results persist via the profiler's tuning cache so
  /// a second compile is measurement-free.  No-op under
  /// BOLT_CPU_BACKEND=ref (the reference oracle must not depend on
  /// tuning state).
  bool tune_cpu_kernels = false;
};

struct TuningReport {
  /// Simulated wall-clock tuning time.  With a parallel profiler
  /// (ProfilerCostModel::num_threads > 1) measurement is accounted as the
  /// critical path across workers, so this is what an operator watching
  /// the tuning run experiences.
  double seconds = 0.0;
  double compile_seconds = 0.0;
  double measure_seconds = 0.0;
  /// Summed device-occupancy seconds across all measurement workers; equal
  /// to `seconds` for a serial profiler, larger under parallelism.
  double device_seconds = 0.0;
  int workloads_profiled = 0;
  int candidates_tried = 0;
  /// CPU autotuning (CompileOptions::tune_cpu_kernels) — distinct GEMM /
  /// conv problems tuned and real-kernel measurements taken; hits against
  /// the profiler's cpu/ tuning cache cost zero measurements.
  int cpu_workloads_tuned = 0;
  int cpu_candidates_tried = 0;
  int cpu_cache_hits = 0;
  /// Candidates the enumerator produced across measured sweeps (including
  /// any cross-shape transfer seeds); `cpu_candidates_tried /
  /// cpu_candidates_enumerated` is the measured fraction after learned
  /// pruning — 1.0 when every sweep ran full.
  int cpu_candidates_enumerated = 0;
  /// Sweeps where the learned pre-filter confidently pruned the
  /// candidate set (subset of cpu_workloads_tuned minus cache hits).
  int cpu_ranked_workloads = 0;
  PassStats pass_stats;
};

class Engine {
 public:
  /// Runs the full pipeline. The input graph uses primitive ops only.
  static Result<Engine> Compile(const Graph& graph,
                                const CompileOptions& options);

  /// The graph after all Bolt passes (composite bolt.* ops present).
  const Graph& optimized_graph() const { return *graph_; }

  /// Generated-code module: kernel sources + launch plan.
  const codegen::RuntimeModule& module() const { return module_; }

  /// Simulated end-to-end inference latency.
  double EstimatedLatencyUs() const {
    return module_.estimated_total_us();
  }

  const TuningReport& tuning_report() const { return report_; }
  const DeviceSpec& device() const { return options_.device; }

  /// Functional execution (FP16-faithful). Weights must be materialized.
  /// Runs the Interpreter built at Compile: each bolt.* node is one
  /// KernelStep lowered from its profiled problem and epilogue, every
  /// other node an ordinary interpreter step.  Const and thread-safe: the
  /// walk's state is local to the call.
  Result<std::vector<Tensor>> Run(
      const std::map<std::string, Tensor>& inputs) const;

  /// Batched execute entry point for the serving layer (src/serve).
  ///
  /// Each request tensor is a leading-batch-axis slice of this engine's
  /// single graph input: shape [b_i, ...tail] with the tail dims, layout
  /// and dtype of the compiled input, b_i >= 1, and sum(b_i) <= the
  /// compiled batch B.  The requests are stacked in order along the batch
  /// axis, the gap up to B is padded with zero rows (the paper's
  /// kernel-padding idea applied to partial batches), the engine executes
  /// once, and every output — whose leading axis must be the batch axis —
  /// is demultiplexed back into per-request slices with the padded rows
  /// dropped.
  ///
  /// Because every kernel in the pipeline treats batch rows
  /// independently, the demuxed results are bit-identical to running each
  /// request alone on this engine; vs the per-request RefExecutor they
  /// inherit the backend's two-tier contract (scalar bit-exact,
  /// SIMD ULP-bounded).
  Result<std::vector<std::vector<Tensor>>> RunBatch(
      const std::vector<Tensor>& requests) const;

 private:
  Engine(Graph graph, CompileOptions options)
      : graph_(std::make_unique<const Graph>(std::move(graph))),
        options_(std::move(options)) {}

  /// Warms the profiler's best-config cache by fanning the graph's
  /// independent partitioned workloads out across the profiler's worker
  /// pool.  No-op for a serial profiler.  Profiling errors are deferred to
  /// BuildModule, which re-encounters and reports them.
  void PreProfile(Profiler& profiler);

  /// Profiles and emits every launch, and builds interp_ with one
  /// KernelStep per bolt.* node.
  Status BuildModule(Profiler& profiler);

  /// Measures CPU kernel blockings for every GEMM / conv problem in the
  /// graph (Bolt composites and unfused host primitives alike) and
  /// registers the winners for execution-time lookup.  Accumulates the
  /// cpu_* fields of report_.
  Status TuneCpuKernels(Profiler& profiler);

  // On the heap so that moving the Engine keeps interp_'s reference valid.
  std::unique_ptr<const Graph> graph_;
  CompileOptions options_;
  codegen::RuntimeModule module_;
  TuningReport report_;
  std::unique_ptr<const Interpreter> interp_;
};

}  // namespace bolt
