#include "bolt/engine.h"

#include <algorithm>
#include <functional>

#include "bolt/hostcost.h"
#include "codegen/emit.h"
#include "common/trace.h"
#include "cpukernels/backend.h"
#include "cutlite/padding.h"
#include "ir/interpreter.h"

namespace bolt {

using codegen::LaunchKind;
using codegen::LaunchRecord;
using cutlite::B2bConvKernel;
using cutlite::B2bGemmKernel;
using cutlite::ConvProblem;
using cutlite::EpilogueSpec;
using cutlite::GemmCoord;

namespace {

bool IsComposite(OpKind k) {
  return k == OpKind::kBoltGemm || k == OpKind::kBoltConv2d ||
         k == OpKind::kBoltB2BGemm || k == OpKind::kBoltB2BConv;
}

/// Per-stage problems and epilogues of a bolt.* composite: one stage for
/// bolt.gemm / bolt.conv2d, `stages` for the b2b kinds.  The epilogues
/// keep the attrs' default output dtype, which is what the profiler keys
/// on and the code generator emits.
struct CompositeStages {
  std::vector<GemmCoord> gemms;    // bolt.gemm, bolt.b2b_gemm
  std::vector<ConvProblem> convs;  // bolt.conv2d, bolt.b2b_conv
  std::vector<EpilogueSpec> epilogues;
};

CompositeStages StagesOf(const Graph& g, const Node& n) {
  const bool b2b =
      n.kind == OpKind::kBoltB2BGemm || n.kind == OpKind::kBoltB2BConv;
  const bool gemm =
      n.kind == OpKind::kBoltGemm || n.kind == OpKind::kBoltB2BGemm;
  const int stages = b2b ? static_cast<int>(n.attrs.GetInt("stages", 2)) : 1;
  CompositeStages st;
  for (int s = 0; s < stages; ++s) {
    if (gemm) {
      st.gemms.push_back(GemmProblemOf(g, n, s));
    } else {
      st.convs.push_back(ConvProblemOf(g, n, s));
    }
    st.epilogues.push_back(
        EpilogueFromAttrs(n.attrs, b2b ? StrCat("s", s, "_") : ""));
  }
  return st;
}

/// The CPU tuning workload of conv problem `p` run in `layout`; dilation is
/// not part of a ConvProblem, so it comes separately.
CpuConvWorkload CpuConvWorkloadOf(const ConvProblem& p, Layout layout,
                                  int64_t dilation_h = 1,
                                  int64_t dilation_w = 1) {
  CpuConvWorkload w;
  w.batch = p.n;
  w.h = p.h;
  w.w = p.w;
  w.c = p.c;
  w.oc = p.k;
  w.kh = p.r;
  w.kw = p.s;
  w.params.stride_h = p.stride_h;
  w.params.stride_w = p.stride_w;
  w.params.pad_h = p.pad_h;
  w.params.pad_w = p.pad_w;
  w.params.dilation_h = dilation_h;
  w.params.dilation_w = dilation_w;
  w.layout = layout;
  return w;
}

/// The host launch of bolt.* node `n`: one KernelStep stage per composite
/// stage, each quantizing once on store at the node's declared precision
/// (cutlite mode; an FP32 graph must not be quantized through the
/// EpilogueSpec's FP16 default).  Operands are in node-input order: the
/// activation, then per stage the weight and (when the epilogue has one)
/// the bias; a residual comes last.
KernelStep LowerComposite(const Node& n, const CompositeStages& st) {
  KernelStep step;
  step.result = n.id;
  size_t next = 0;
  step.activation = n.inputs[next++];
  for (size_t s = 0; s < st.epilogues.size(); ++s) {
    const EpilogueSpec& e = st.epilogues[s];
    KernelStep::Stage& stage = step.stages.emplace_back();
    stage.weight = n.inputs[next++];
    if (e.has_bias) stage.bias = n.inputs[next++];
    if (!st.convs.empty()) {
      const ConvProblem& p = st.convs[s];
      stage.kind = KernelStep::Kind::kConv;
      stage.conv.stride_h = p.stride_h;
      stage.conv.stride_w = p.stride_w;
      stage.conv.pad_h = p.pad_h;
      stage.conv.pad_w = p.pad_w;
    }
    stage.epilogue.alpha = e.alpha;
    stage.epilogue.beta = e.beta;
    stage.epilogue.acts = e.activations;
    stage.epilogue.output_dtype = n.out_desc.dtype;
  }
  if (st.epilogues.back().has_residual) step.residual = n.inputs[next++];
  return step;
}

/// The profiler's choice for a bolt.* node: one config per stage, the
/// estimate and, for the b2b kinds, the residence.  `candidates_tried`
/// counts the single-kernel sweep and stays 0 for the b2b kinds.
struct CompositeChoice {
  std::vector<cutlite::KernelConfig> configs;
  cutlite::ResidenceKind residence = cutlite::ResidenceKind::kRegisterFile;
  double us = 0.0;
  int candidates_tried = 0;
};

/// The profiler call for bolt.* node `n`.  PreProfile makes it to warm the
/// cache and BuildModule to emit from the result, so both key the profiler
/// identically.
Result<CompositeChoice> ProfileComposite(Profiler& profiler, const Node& n,
                                         const CompositeStages& st) {
  const bool conv = !st.convs.empty();
  if (n.kind == OpKind::kBoltGemm || n.kind == OpKind::kBoltConv2d) {
    auto r = conv ? profiler.ProfileConv(st.convs[0], st.epilogues[0])
                  : profiler.ProfileGemm(st.gemms[0], st.epilogues[0]);
    if (!r.ok()) return r.status();
    return CompositeChoice{{r->config}, {}, r->us, r->candidates_tried};
  }
  const B2bProfileResult r =
      conv ? profiler.ProfileB2bConv(st.convs, st.epilogues)
           : profiler.ProfileB2bGemm(st.gemms, st.epilogues);
  if (!r.feasible) {
    return Status::Internal(StrCat(conv ? "b2b conv" : "b2b gemm",
                                   " node no longer feasible: ", n.name));
  }
  return CompositeChoice{r.configs, r.residence, r.fused_us, 0};
}

/// A generated kernel: its launch kind, name and source text.
struct EmittedKernel {
  LaunchKind kind;
  std::string name;
  std::string source;
};

/// The persistent kernel over `problems` under the profiler's choice.
template <typename Chain, typename Problem, typename Stage>
Result<EmittedKernel> EmitChain(
    LaunchKind kind, const std::vector<Problem>& problems,
    const CompositeStages& st, const CompositeChoice& choice,
    const DeviceSpec& spec,
    std::string (*emit)(const std::vector<Stage>&, cutlite::ResidenceKind)) {
  std::vector<Stage> stages;
  for (size_t s = 0; s < problems.size(); ++s) {
    stages.push_back(Stage{problems[s], choice.configs[s], st.epilogues[s]});
  }
  std::string source = emit(stages, choice.residence);
  auto kernel = Chain::Create(std::move(stages), choice.residence, spec);
  if (!kernel.ok()) return kernel.status();
  return EmittedKernel{kind, kernel->Name(), std::move(source)};
}

/// The kernel generated for bolt.* node `n` under the profiler's choice.
Result<EmittedKernel> EmitComposite(const Graph& g, const Node& n,
                                    const CompositeStages& st,
                                    const CompositeChoice& choice,
                                    const DeviceSpec& spec) {
  const cutlite::KernelConfig& config = choice.configs[0];
  switch (n.kind) {
    case OpKind::kBoltGemm:
      return EmittedKernel{
          LaunchKind::kGemm, config.Name("gemm"),
          codegen::EmitGemmKernel(st.gemms[0], config, st.epilogues[0])};
    case OpKind::kBoltConv2d: {
      codegen::EmitOptions eo;
      if (n.attrs.Has("padded_from_c")) {
        eo.pad_input_channels_to = st.convs[0].c;
      }
      // Fold adjacent layout transforms into this kernel's iterators.
      const Node& x = g.node(n.inputs[0]);
      if (x.kind == OpKind::kLayoutTransform ||
          (x.kind == OpKind::kPadChannels &&
           g.node(x.inputs[0]).kind == OpKind::kLayoutTransform)) {
        eo.fold_input_layout_transform = true;
      }
      for (NodeId c : g.Consumers(n.id)) {
        if (g.node(c).kind == OpKind::kLayoutTransform) {
          eo.fold_output_layout_transform = true;
        }
      }
      return EmittedKernel{
          LaunchKind::kConv, config.Name("conv2d_fprop"),
          codegen::EmitConvKernel(st.convs[0], config, st.epilogues[0], eo)};
    }
    case OpKind::kBoltB2BGemm:
      return EmitChain<B2bGemmKernel>(LaunchKind::kB2bGemm, st.gemms, st,
                                      choice, spec,
                                      &codegen::EmitB2bGemmKernel);
    default:
      return EmitChain<B2bConvKernel>(LaunchKind::kB2bConv, st.convs, st,
                                      choice, spec,
                                      &codegen::EmitB2bConvKernel);
  }
}

/// True if the layout-transform node is adjacent to a Bolt composite and
/// can be folded into that kernel's iterators (no separate launch).
bool TransformFoldable(const Graph& g, const Node& n) {
  BOLT_CHECK(n.kind == OpKind::kLayoutTransform);
  // Input-side: single consumer is a Bolt kernel (possibly via padding).
  const auto consumers = g.Consumers(n.id);
  if (consumers.size() == 1) {
    const Node& c = g.node(consumers[0]);
    if (IsComposite(c.kind) || c.kind == OpKind::kPadChannels) return true;
  }
  // Output-side: producer is a Bolt kernel.
  const Node& producer = g.node(n.inputs[0]);
  return IsComposite(producer.kind);
}

/// JSON fields for the PassStats counters one pass contributed (empty when
/// the pass changed nothing the stats track).  Rendered with a leading
/// comma so the caller can append after the node counts.
std::string PassStatsDeltaJson(const PassStats& before,
                               const PassStats& after) {
  std::string out;
  auto field = [&out](const char* key, int delta) {
    if (delta != 0) out += StrCat(",\"", key, "\":", delta);
  };
  field("epilogues_fused", after.epilogues_fused - before.epilogues_fused);
  field("persistent_fused",
        after.persistent_fused - before.persistent_fused);
  field("persistent_stages",
        after.persistent_stages - before.persistent_stages);
  field("tensors_padded", after.tensors_padded - before.tensors_padded);
  field("layout_transforms_inserted",
        after.layout_transforms_inserted - before.layout_transforms_inserted);
  field("batchnorms_folded",
        after.batchnorms_folded - before.batchnorms_folded);
  return out;
}

}  // namespace

Result<Engine> Engine::Compile(const Graph& input,
                               const CompileOptions& options) {
  trace::TraceSink::InitFromEnv();
  trace::TraceSink& sink = trace::TraceSink::Global();
  // Only a sink this compile starts is flushed at its end.  A sink started
  // elsewhere (BOLT_TRACE, a bench, a test) is flushed once by its owner:
  // rewriting every event recorded so far after each compile made a traced
  // run quadratic in its number of compiles.
  const bool owns_sink = !options.trace_path.empty() && !sink.enabled();
  if (owns_sink) sink.Start(options.trace_path);

  Profiler local_profiler(options.device, options.profiler_cost);
  Profiler& profiler = options.shared_profiler != nullptr
                           ? *options.shared_profiler
                           : local_profiler;
  const double clock_before = profiler.clock().seconds();
  const double compile_before = profiler.clock().compile_seconds();
  const double measure_before = profiler.clock().measure_seconds();
  const double device_before = profiler.clock().device_seconds();
  PassStats stats;

  // Traced pass runner: one real-wall-clock span per pass on the compile
  // lane, annotated with node counts and the PassStats the pass added.
  auto run_pass = [&](const char* name, int nodes_before, auto&& fn) {
    if (!sink.enabled()) return fn();
    const PassStats stats_before = stats;
    const double t0 = sink.NowUs();
    Graph out = fn();
    sink.EmitSpan(trace::kPidCompile, sink.CurrentThreadLane(), name,
                  "pass", t0, sink.NowUs(),
                  StrCat("{\"nodes_before\":", nodes_before,
                         ",\"nodes_after\":", out.num_nodes(),
                         PassStatsDeltaJson(stats_before, stats), "}"));
    return out;
  };

  Graph g = run_pass("LayoutTransformPass", input.num_nodes(),
                     [&] { return LayoutTransformPass(input, &stats); });
  g = run_pass("FoldBatchNormPass", g.num_nodes(),
               [&] { return FoldBatchNormPass(g, &stats); });
  g = run_pass("EpilogueFusionPass", g.num_nodes(), [&] {
    return EpilogueFusionPass(g, options.enable_epilogue_fusion, &stats);
  });
  // Padding first: persistent fusion then sees the aligned problems.
  if (options.enable_padding) {
    g = run_pass("PaddingPass", g.num_nodes(),
                 [&] { return PaddingPass(g, profiler, &stats); });
  }
  if (options.enable_persistent_fusion) {
    g = run_pass("PersistentKernelFusionPass", g.num_nodes(), [&] {
      return PersistentKernelFusionPass(g, profiler, &stats);
    });
  }

  Engine engine(std::move(g), options);
  {
    trace::Span span(trace::kPidCompile, "PreProfile", "engine");
    engine.PreProfile(profiler);
  }
  Status st;
  {
    trace::Span span(trace::kPidCompile, "BuildModule", "engine");
    st = engine.BuildModule(profiler);
  }
  if (!st.ok()) return st;

  // CPU blocking autotune rides after module construction so the problem
  // set (post-padding, post-fusion) is final.  Skipped under the reference
  // backend: the oracle never reads the tuned-block registry.
  if (options.tune_cpu_kernels &&
      cpukernels::DefaultBackend() == cpukernels::Backend::kFastCpu) {
    trace::Span span(trace::kPidCompile, "TuneCpuKernels", "engine");
    st = engine.TuneCpuKernels(profiler);
    if (!st.ok()) return st;
  }

  engine.report_.seconds = profiler.clock().seconds() - clock_before;
  engine.report_.compile_seconds =
      profiler.clock().compile_seconds() - compile_before;
  engine.report_.measure_seconds =
      profiler.clock().measure_seconds() - measure_before;
  engine.report_.device_seconds =
      profiler.clock().device_seconds() - device_before;
  engine.report_.workloads_profiled = profiler.cache_size();
  engine.report_.pass_stats = stats;

  engine.module_.set_execution_backend(
      cpukernels::BackendName(cpukernels::DefaultBackend()));

  // Simulated kernel-launch timeline, then persist a sink this compile
  // started (tracing stays on).
  engine.module_.EmitLaunchTimeline();
  if (owns_sink) {
    (void)sink.Flush();  // best-effort: a failed flush must not fail compile
  }
  return engine;
}

void Engine::PreProfile(Profiler& profiler) {
  ThreadPool* pool = profiler.pool();
  if (pool == nullptr) return;
  // Partitioned workloads are independent; profile them concurrently so
  // BuildModule's serial walk below hits a warm cache.  The profiler's
  // single-flight cache deduplicates repeated workloads across jobs.
  std::vector<std::function<void()>> jobs;
  for (const Node& n : graph_->nodes()) {
    if (!IsComposite(n.kind)) continue;
    jobs.push_back([&profiler, &n, st = StagesOf(*graph_, n)] {
      (void)ProfileComposite(profiler, n, st);
    });
  }
  pool->ParallelFor(static_cast<int64_t>(jobs.size()),
                    [&](int64_t i) { jobs[i](); });
}

Status Engine::TuneCpuKernels(Profiler& profiler) {
  // The profiler's single-flight cpu/ cache deduplicates repeated problems
  // across nodes (and across compiles, via Save/LoadCache), so this walk
  // can be naive.  Measurement runs serially: each candidate launch may
  // itself fan out over the shared process pool.
  auto record = [this](const Result<CpuProfileResult>& r) -> Status {
    if (!r.ok()) return r.status();
    ++report_.cpu_workloads_tuned;
    if (r.value().cache_hit) {
      ++report_.cpu_cache_hits;
    } else {
      report_.cpu_candidates_tried += r.value().candidates_tried;
      report_.cpu_candidates_enumerated += r.value().candidates_enumerated;
      if (r.value().ranked) ++report_.cpu_ranked_workloads;
    }
    return Status::Ok();
  };
  for (const Node& n : graph_->nodes()) {
    if (IsComposite(n.kind)) {
      // Persistent fusions execute stage-by-stage on the host kernels, so
      // each stage problem is its own tunable workload.
      const CompositeStages st = StagesOf(*graph_, n);
      for (const GemmCoord& p : st.gemms) {
        CpuGemmWorkload w;
        w.m = p.m;
        w.n = p.n;
        w.k = p.k;
        BOLT_RETURN_IF_ERROR(record(profiler.ProfileCpuGemm(w)));
      }
      for (const ConvProblem& p : st.convs) {
        BOLT_RETURN_IF_ERROR(record(
            profiler.ProfileCpuConv(CpuConvWorkloadOf(p, Layout::kNHWC))));
      }
    } else if (n.kind == OpKind::kConv2d) {
      // Unfused primitive conv (e.g. dilated) executed by the host
      // kernels through the interpreter step in Run().
      const Conv2dAttrs a = Conv2dAttrs::FromNode(n);
      const TensorDesc& x = graph_->node(n.inputs[0]).out_desc;
      const TensorDesc& wt = graph_->node(n.inputs[1]).out_desc;
      if (x.shape.size() != 4 || wt.shape.size() != 4) continue;
      ConvProblem p;
      p.n = x.shape[0];
      if (x.layout == Layout::kNHWC) {
        p.h = x.shape[1];
        p.w = x.shape[2];
        p.c = x.shape[3];
      } else {
        // kNCHW and blocked kNCHWc both keep the logical NCHW shape.
        p.c = x.shape[1];
        p.h = x.shape[2];
        p.w = x.shape[3];
      }
      p.k = wt.shape[0];
      p.r = wt.shape[1];
      p.s = wt.shape[2];
      p.stride_h = a.stride_h;
      p.stride_w = a.stride_w;
      p.pad_h = a.pad_h;
      p.pad_w = a.pad_w;
      BOLT_RETURN_IF_ERROR(record(profiler.ProfileCpuConv(CpuConvWorkloadOf(
          p, x.layout, a.dilation_h, a.dilation_w))));
    }
  }
  return Status::Ok();
}

Status Engine::BuildModule(Profiler& profiler) {
  const DeviceSpec& spec = options_.device;
  std::vector<bool> handled(graph_->num_nodes(), false);
  std::vector<KernelStep> steps;

  for (const Node& n : graph_->nodes()) {
    if (handled[n.id]) continue;
    switch (n.kind) {
      case OpKind::kInput:
      case OpKind::kConstant:
        break;
      case OpKind::kBoltGemm:
      case OpKind::kBoltConv2d:
      case OpKind::kBoltB2BGemm:
      case OpKind::kBoltB2BConv: {
        const CompositeStages st = StagesOf(*graph_, n);
        auto choice = ProfileComposite(profiler, n, st);
        if (!choice.ok()) return choice.status();
        report_.candidates_tried += choice->candidates_tried;
        auto kernel = EmitComposite(*graph_, n, st, *choice, spec);
        if (!kernel.ok()) return kernel.status();
        module_.AddKernelSource(kernel->name, kernel->source);
        module_.AddLaunch({kernel->kind, kernel->name, n.id, choice->us});
        steps.push_back(LowerComposite(n, st));
        break;
      }
      case OpKind::kPadChannels: {
        const Node& x = graph_->node(n.inputs[0]);
        const double us = cutlite::PaddingKernelUs(
            spec, static_cast<double>(x.out_desc.num_bytes()),
            static_cast<double>(n.out_desc.num_bytes()));
        module_.AddLaunch({LaunchKind::kPadding, "bolt_pad_channels", n.id,
                           us});
        break;
      }
      case OpKind::kLayoutTransform: {
        if (TransformFoldable(*graph_, n)) {
          // Folded into the adjacent kernel: traffic cost, no launch.
          const double us = HostOpCostUs(spec, *graph_, n) -
                            spec.kernel_launch_us;
          module_.AddLaunch({LaunchKind::kHostOp,
                             "folded_layout_transform", n.id,
                             std::max(0.0, us)});
        } else {
          module_.AddLaunch({LaunchKind::kHostOp, "layout_transform", n.id,
                             HostOpCostUs(spec, *graph_, n)});
        }
        break;
      }
      default: {
        // Host (TVM-side) op. Fuse a single-consumer element-wise chain
        // into one host kernel, TVM-style.
        if (IsElementwiseFusable(n.kind)) {
          std::vector<NodeId> chain = {n.id};
          NodeId cur = n.id;
          while (true) {
            const auto consumers = graph_->Consumers(cur);
            if (consumers.size() != 1) break;
            const Node& c = graph_->node(consumers[0]);
            if (!IsElementwiseFusable(c.kind) || c.inputs[0] != cur) break;
            chain.push_back(c.id);
            cur = c.id;
          }
          for (NodeId id : chain) handled[id] = true;
          module_.AddLaunch({LaunchKind::kHostOp,
                             StrCat("tvm_elemwise_x", chain.size()), n.id,
                             ElementwiseChainCostUs(spec, *graph_, chain)});
        } else {
          module_.AddLaunch({LaunchKind::kHostOp, OpKindName(n.kind), n.id,
                             HostOpCostUs(spec, *graph_, n)});
        }
        break;
      }
    }
    handled[n.id] = true;
  }
  interp_ = std::make_unique<const Interpreter>(*graph_, InterpreterOptions{},
                                                std::move(steps));
  return Status::Ok();
}

Result<std::vector<std::vector<Tensor>>> Engine::RunBatch(
    const std::vector<Tensor>& requests) const {
  if (requests.empty()) {
    return Status::InvalidArgument("RunBatch needs at least one request");
  }
  if (graph_->input_ids().size() != 1) {
    return Status::Unsupported(
        StrCat("RunBatch requires exactly one graph input, got ",
               graph_->input_ids().size()));
  }
  const Node& in_node = graph_->node(graph_->input_ids()[0]);
  const TensorDesc& in_desc = in_node.out_desc;
  if (in_desc.rank() < 1) {
    return Status::Unsupported("RunBatch input has no batch axis");
  }
  const int64_t batch = in_desc.shape[0];
  const int64_t row_elems = in_desc.num_elements() / batch;

  int64_t rows = 0;
  for (const Tensor& r : requests) {
    const TensorDesc& d = r.desc();
    if (d.rank() != in_desc.rank() || d.shape[0] < 1) {
      return Status::InvalidArgument(
          StrCat("request shape ", d.ToString(),
                 " does not match engine input ", in_desc.ToString()));
    }
    for (int i = 1; i < d.rank(); ++i) {
      if (d.shape[i] != in_desc.shape[i]) {
        return Status::InvalidArgument(
            StrCat("request shape ", d.ToString(),
                   " does not match engine input ", in_desc.ToString()));
      }
    }
    if (d.dtype != in_desc.dtype) {
      return Status::InvalidArgument(
          StrCat("request dtype ", DTypeName(d.dtype),
                 " does not match engine input ",
                 DTypeName(in_desc.dtype)));
    }
    rows += d.shape[0];
  }
  if (rows > batch) {
    return Status::InvalidArgument(
        StrCat("batch of ", rows, " rows exceeds compiled batch ", batch));
  }

  // Stack the requests along the batch axis; rows [rows, batch) stay the
  // zero padding the constructor provides.
  Tensor stacked(TensorDesc(in_desc.dtype, in_desc.shape, in_desc.layout));
  int64_t at = 0;
  for (const Tensor& r : requests) {
    std::copy(r.data().begin(), r.data().end(),
              stacked.data().begin() + at * row_elems);
    at += r.shape()[0];
  }

  auto outs = Run({{in_node.name, stacked}});
  if (!outs.ok()) return outs.status();

  // Demux every output back into per-request leading-axis slices.
  std::vector<std::vector<Tensor>> per_request(requests.size());
  for (const Tensor& out : outs.value()) {
    const TensorDesc& od = out.desc();
    if (od.rank() < 1 || od.shape[0] != batch) {
      return Status::Unsupported(
          StrCat("RunBatch output ", od.ToString(),
                 " does not carry the batch on its leading axis"));
    }
    const int64_t out_row_elems = od.num_elements() / batch;
    int64_t row = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const int64_t b = requests[i].shape()[0];
      std::vector<int64_t> shape = od.shape;
      shape[0] = b;
      Tensor slice(TensorDesc(od.dtype, std::move(shape), od.layout));
      std::copy(out.data().begin() + row * out_row_elems,
                out.data().begin() + (row + b) * out_row_elems,
                slice.data().begin());
      per_request[i].push_back(std::move(slice));
      row += b;
    }
  }
  return per_request;
}

Result<std::vector<Tensor>> Engine::Run(
    const std::map<std::string, Tensor>& inputs) const {
  return interp_->Run(inputs);
}

}  // namespace bolt
