// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Interpreter execution-backend throughput: the naive reference loops
// against the blocked CPU kernels, with threading and epilogue fusion
// enabled incrementally.  Emits BENCH_interpreter.json for CI tracking.
//
//   mode            backend    threads   epilogue fusion
//   ------------    --------   -------   ---------------
//   naive           reference  no        no
//   blocked         cpukernels no        no
//   blocked+mt      cpukernels yes       no
//   blocked+mt+ep   cpukernels yes       yes
//
// All four modes agree with the reference at the default ISA's tier (the
// blocked kernels keep the reference accumulation order): bit-identical
// at scalar, ULP-bounded at a SIMD rung; only the time changes.
//
// With --tuned, each workload's GEMM / conv problems are additionally
// autotuned through Profiler::ProfileCpuGemm / ProfileCpuConv (real
// wall-clock candidate sweeps), and a heuristic-vs-tuned pair is measured
// and emitted per workload.  The run asserts that (a) a second profile
// pass is 100% cache hits with zero re-measurement, (b) tuned outputs
// stay within the default tier of the naive oracle, and (c) the tuned geomean
// speedup does not regress the fixed heuristic beyond measurement noise.
//
// With --tiers, the fused mode is additionally measured once per ISA rung
// the host can execute (block.isa pinned, tuned blocks off), each SIMD
// rung in two arms: vectorized packing + fused epilogues (the default)
// and the scalar data-movement paths (BOLT_CPU_PACK=scalar — the PR-5
// baseline, SIMD micro-kernel with scalar pack/epilogue loops).  Both
// arms of a rung must produce bit-identical outputs (the pack contract),
// and the vectorized arm must beat the scalar-pack arm by >= 1.15x fused
// geomean at the AVX2 rung — the run asserts that gate.  Emits
// BENCH_simd_tiers.json with per-rung geomeans for CI tracking.
//
// With --layouts, a set of NCHW-heavy workloads (framework-export
// pointwise segments, where boundary layout transforms are a large
// fraction of runtime) is measured under two compile pipelines: the fixed
// pipeline (LayoutTransformPass — everything to NHWC, transforms at both
// ends) and the ALT-style tuned pipeline (LayoutSearchPass — each
// partition picks NCHW / NHWC / blocked NCHWc and agreeing boundaries
// elide their transforms).  Both arms must agree with the naive oracle
// under the two-tier contract, and the tuned arm must beat fixed-NHWC by
// >= 1.10x geomean — the run asserts that gate.  Emits BENCH_layout.json
// for CI tracking.
//
// Usage: bench_interpreter_throughput [--smoke] [--tuned] [--tiers]
//                                     [--layouts] [--out=PATH]
//                                     [--tiers-out=PATH]
//                                     [--layouts-out=PATH] [--trace[=P]]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bolt/passes.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"
#include "device/spec.h"
#include "ir/interpreter.h"
#include "models/zoo.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

Tensor RandomTensor(TensorDesc desc, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(desc));
  for (float& v : t.data()) v = rng.Normal(0.0f, 0.5f);
  t.Quantize();
  return t;
}

Tensor RandomWeight(DType dt, std::vector<int64_t> shape, uint64_t seed) {
  Tensor t = RandomTensor(TensorDesc(dt, std::move(shape), Layout::kAny),
                          seed);
  // Keep layer outputs O(1) so deep stacks stay finite in FP16.
  int64_t fan_in = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan_in *= t.shape()[i];
  const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
  for (float& v : t.data()) v *= scale;
  t.Quantize();
  return t;
}

/// Sum of 2*M*N*K over every Conv2d/Dense node.
double GraphFlops(const Graph& g) {
  double flops = 0.0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kConv2d) {
      const auto& w = g.node(n.inputs[1]).out_desc.shape;
      const auto& o = n.out_desc.shape;
      const int64_t pixels = o[0] * o[1] * o[2] * o[3] / w[0];
      flops += 2.0 * pixels * w[0] * (w[1] * w[2] * w[3]);
    } else if (n.kind == OpKind::kDense) {
      const auto& w = g.node(n.inputs[1]).out_desc.shape;
      flops += 2.0 * n.out_desc.shape[0] * w[0] * w[1];
    }
  }
  return flops;
}

struct Workload {
  std::string name;
  Graph graph;
  std::map<std::string, Tensor> inputs;
  int iters = 3;
};

/// Dense 512x1024 -> 1024 with bias + ReLU (a classifier-head GEMM).
Workload MakeGemm() {
  GraphBuilder b(DType::kFloat16);
  NodeId x = b.Input("x", {512, 1024});
  NodeId w = b.Constant("w", RandomWeight(DType::kFloat16, {1024, 1024}, 2));
  NodeId d = b.Dense(x, w);
  NodeId bias =
      b.Constant("b", RandomWeight(DType::kFloat16, {1024}, 3));
  NodeId out = b.Activation(b.BiasAdd(d, bias), ActivationKind::kRelu);
  b.MarkOutput(out);
  Workload wl;
  wl.name = "gemm_512x1024x1024_bias_relu";
  wl.graph = b.Build().value();
  wl.inputs["x"] =
      RandomTensor(TensorDesc(DType::kFloat16, {512, 1024}), 1);
  return wl;
}

/// A ResNet/RepVGG-class residual block at 56x56x64 NHWC: two 3x3 convs
/// with bias + ReLU, identity shortcut, final ReLU.
Workload MakeResBlock() {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 56, 56, 64});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId w1 =
      b.Constant("w1", RandomWeight(DType::kFloat16, {64, 3, 3, 64}, 4));
  NodeId b1 = b.Constant("b1", RandomWeight(DType::kFloat16, {64}, 5));
  NodeId c1 = b.Activation(b.BiasAdd(b.Conv2d(x, w1, a), b1),
                           ActivationKind::kRelu);
  NodeId w2 =
      b.Constant("w2", RandomWeight(DType::kFloat16, {64, 3, 3, 64}, 6));
  NodeId b2 = b.Constant("b2", RandomWeight(DType::kFloat16, {64}, 7));
  NodeId c2 = b.BiasAdd(b.Conv2d(c1, w2, a), b2);
  NodeId out = b.Activation(b.Add(c2, x), ActivationKind::kRelu);
  b.MarkOutput(out);
  Workload wl;
  wl.name = "resblock_56x56x64_3x3_nhwc";
  wl.graph = b.Build().value();
  wl.inputs["x"] =
      RandomTensor(TensorDesc(DType::kFloat16, {1, 56, 56, 64},
                              Layout::kNHWC),
                   8);
  return wl;
}

/// The same conv shape in NCHW (PyTorch's export layout), exercising the
/// strided im2col gather and scattered epilogue write-back.
Workload MakeConvNchw() {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  NodeId x = b.Input("x", {1, 128, 28, 28});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId w =
      b.Constant("w", RandomWeight(DType::kFloat16, {128, 3, 3, 128}, 9));
  NodeId bias = b.Constant("b", RandomWeight(DType::kFloat16, {128}, 10));
  NodeId out = b.Activation(b.BiasAdd(b.Conv2d(x, w, a), bias),
                            ActivationKind::kRelu);
  b.MarkOutput(out);
  Workload wl;
  wl.name = "conv3x3_28x28x128_nchw";
  wl.graph = b.Build().value();
  wl.inputs["x"] =
      RandomTensor(TensorDesc(DType::kFloat16, {1, 128, 28, 28},
                              Layout::kNCHW),
                   11);
  return wl;
}

/// End-to-end ResNet-18 at reduced resolution, materialized weights.
Workload MakeResNet(bool smoke) {
  models::ModelOptions opts;
  opts.batch = 1;
  opts.image_size = smoke ? 32 : 56;
  opts.num_classes = 100;
  opts.materialize_weights = true;
  opts.layout = Layout::kNHWC;
  Workload wl;
  wl.name = StrCat("resnet18_", opts.image_size, "_nhwc");
  wl.graph = models::BuildResNet(18, opts).value();
  wl.inputs["data"] = RandomTensor(
      TensorDesc(opts.dtype,
                 {1, opts.image_size, opts.image_size, 3},
                 Layout::kNHWC),
      12);
  wl.iters = 1;
  return wl;
}

struct Mode {
  std::string name;
  InterpreterOptions opts;
};

std::vector<Mode> Modes() {
  std::vector<Mode> m;
  m.push_back({"naive", RefExecutor::ReferenceOptions()});
  InterpreterOptions blocked;
  blocked.backend = cpukernels::Backend::kFastCpu;
  blocked.fuse_epilogues = false;
  blocked.parallel = false;
  m.push_back({"blocked", blocked});
  InterpreterOptions mt = blocked;
  mt.parallel = true;
  m.push_back({"blocked+mt", mt});
  InterpreterOptions fused = mt;
  fused.fuse_epilogues = true;
  m.push_back({"blocked+mt+ep", fused});
  return m;
}

/// Autotunes every Dense / Conv2d problem of a primitive graph through the
/// profiler's CPU measurement path.  Returns the number of workloads
/// profiled; `measured` accumulates candidates actually measured (cache
/// hits add zero) and `all_hits` reports whether every workload was one.
int TuneGraphCpu(Profiler& prof, const Graph& g, int* measured,
                 bool* all_hits) {
  int tuned = 0;
  *all_hits = true;
  auto record = [&](const Result<CpuProfileResult>& r) {
    BOLT_CHECK_MSG(r.ok(), r.status().ToString());
    ++tuned;
    if (!r.value().cache_hit) *measured += r.value().candidates_tried;
    *all_hits &= r.value().cache_hit;
  };
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kDense) {
      const auto& a = g.node(n.inputs[0]).out_desc.shape;
      const auto& w = g.node(n.inputs[1]).out_desc.shape;
      CpuGemmWorkload wl;
      wl.m = a[0];
      wl.n = w[0];
      wl.k = a[1];
      record(prof.ProfileCpuGemm(wl));
    } else if (n.kind == OpKind::kConv2d) {
      const Conv2dAttrs attrs = Conv2dAttrs::FromNode(n);
      const TensorDesc& x = g.node(n.inputs[0]).out_desc;
      const auto& w = g.node(n.inputs[1]).out_desc.shape;
      CpuConvWorkload wl;
      wl.layout = x.layout;
      wl.batch = x.shape[0];
      if (x.layout == Layout::kNCHW) {
        wl.c = x.shape[1];
        wl.h = x.shape[2];
        wl.w = x.shape[3];
      } else {
        wl.h = x.shape[1];
        wl.w = x.shape[2];
        wl.c = x.shape[3];
      }
      wl.oc = w[0];
      wl.kh = w[1];
      wl.kw = w[2];
      wl.params.stride_h = attrs.stride_h;
      wl.params.stride_w = attrs.stride_w;
      wl.params.pad_h = attrs.pad_h;
      wl.params.pad_w = attrs.pad_w;
      wl.params.dilation_h = attrs.dilation_h;
      wl.params.dilation_w = attrs.dilation_w;
      record(prof.ProfileCpuConv(wl));
    }
  }
  return tuned;
}

/// Two-tier agreement check against the naive oracle for a launch that
/// resolved to `isa`: the scalar tier must match bit-for-bit, the SIMD
/// tiers within the documented ULP bound on the output's storage grid
/// (common/ulp.h, docs/CPU_BACKEND.md).
void CheckTierAgainstOracle(const Tensor& got, const Tensor& oracle,
                            cpukernels::CpuIsa isa,
                            const std::string& what) {
  if (isa == cpukernels::CpuIsa::kScalar) {
    BOLT_CHECK_MSG(got.MaxAbsDiff(oracle) == 0.0f,
                   what << " diverged from the reference");
    return;
  }
  const int64_t bound = got.dtype() == DType::kFloat16
                            ? kSimdMaxUlpsFloat16
                            : kSimdMaxUlpsFloat32;
  const int64_t ulps = got.MaxUlpDiff(oracle, kSimdUlpAbsEscape);
  BOLT_CHECK_MSG(ulps <= bound, what << " drifted " << ulps
                                     << " ULP from the reference (bound "
                                     << bound << ")");
}

void CheckAgainstOracle(const Tensor& got, const Tensor& oracle,
                        const std::string& what) {
  CheckTierAgainstOracle(got, oracle, cpukernels::DefaultCpuIsa(), what);
}

/// The --tiers acceptance gate: vectorized packing + fused epilogues must
/// beat the scalar data-movement paths by this fused-geomean factor at
/// the AVX2 rung (the PR-5 baseline: SIMD micro-kernel, scalar pack).
constexpr double kTierGate = 1.15;

double RunUs(const Interpreter& interp,
             const std::map<std::string, Tensor>& inputs, int iters) {
  auto r = interp.Run(inputs);  // warm-up + correctness
  BOLT_CHECK_MSG(r.ok(), r.status().ToString());
  double best = 1e30;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = interp.Run(inputs);
    const auto t1 = std::chrono::steady_clock::now();
    BOLT_CHECK(out.ok());
    best = std::min(
        best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

/// One --tiers measurement arm: an ISA rung plus the data-movement knob.
struct TierArm {
  std::string name;
  cpukernels::CpuIsa isa;
  cpukernels::CpuPackMode pack;
};

/// Measures the fused mode once per ISA rung the host can execute
/// (block.isa pinned, tuned blocks off), each SIMD rung in a vectorized
/// and a scalar-pack arm.  Asserts the two arms of a rung are
/// bit-identical (the pack contract) and that the vectorized arm clears
/// kTierGate at the AVX2 rung.  `oracles` holds the naive reference
/// output per workload, computed by the main mode loop.
void RunTierBench(std::vector<Workload>& workloads,
                  const std::vector<Tensor>& oracles, bool smoke,
                  const std::string& out_path) {
  using cpukernels::CpuIsa;
  using cpukernels::CpuPackMode;
  bench::Rule();
  bench::Note(
      "simd tiers: fused mode per ISA rung, vectorized vs scalar pack");

  std::vector<TierArm> arms;
  arms.push_back({"scalar", CpuIsa::kScalar, CpuPackMode::kSimd});
  const bool have_avx2 =
      cpukernels::ResolveCpuIsa(CpuIsa::kAvx2) == CpuIsa::kAvx2;
  const bool have_avx512 =
      cpukernels::ResolveCpuIsa(CpuIsa::kAvx512) == CpuIsa::kAvx512;
  if (have_avx2) {
    arms.push_back({"avx2+scalarpack", CpuIsa::kAvx2, CpuPackMode::kScalar});
    arms.push_back({"avx2", CpuIsa::kAvx2, CpuPackMode::kSimd});
  }
  if (have_avx512) {
    arms.push_back(
        {"avx512+scalarpack", CpuIsa::kAvx512, CpuPackMode::kScalar});
    arms.push_back({"avx512", CpuIsa::kAvx512, CpuPackMode::kSimd});
  }

  const CpuPackMode prev_pack = cpukernels::CurrentCpuPackMode();
  std::map<std::string, std::vector<double>> arm_us;
  std::map<std::string, std::vector<Tensor>> arm_out;
  std::string json = StrCat(
      "{\"bench\":\"simd_tiers\",\"smoke\":", smoke ? "true" : "false",
      ",\"threads\":", cpukernels::DefaultNumThreads(), ",\"host_isa\":\"",
      cpukernels::CpuIsaName(cpukernels::DetectedCpuIsa()),
      "\",\"gate\":", kTierGate, ",\"arms\":[");
  bool first_arm = true;
  for (const TierArm& arm : arms) {
    cpukernels::SetCpuPackMode(arm.pack);
    double log_gflops = 0.0;
    json += StrCat(first_arm ? "" : ",",
                   "{\"name\":", bench::JsonStr(arm.name), ",\"isa\":\"",
                   cpukernels::CpuIsaName(arm.isa), "\",\"pack\":\"",
                   arm.pack == CpuPackMode::kSimd ? "simd" : "scalar",
                   "\",\"workloads\":[");
    first_arm = false;
    bool first_wl = true;
    for (size_t i = 0; i < workloads.size(); ++i) {
      Workload& wl = workloads[i];
      InterpreterOptions opts;
      opts.backend = cpukernels::Backend::kFastCpu;
      opts.fuse_epilogues = true;
      opts.parallel = true;
      opts.use_tuned_blocks = false;
      opts.block.isa = arm.isa;
      Interpreter interp(wl.graph, opts);
      const int iters = std::max(wl.iters, smoke ? 2 : 3);
      const double us = RunUs(interp, wl.inputs, iters);
      const double flops = GraphFlops(wl.graph);
      const double gflops = flops / us / 1e3;
      Tensor got = interp.Run(wl.inputs).value()[0];
      CheckTierAgainstOracle(got, oracles[i], arm.isa,
                             StrCat(wl.name, " ", arm.name));
      arm_us[arm.name].push_back(us);
      arm_out[arm.name].push_back(std::move(got));
      log_gflops += std::log(gflops);
      std::printf("  %-18s %-28s %10.0f us  %8.2f GFLOP/s\n",
                  arm.name.c_str(), wl.name.c_str(), us, gflops);
      json += StrCat(first_wl ? "" : ",",
                     "{\"name\":", bench::JsonStr(wl.name), ",\"us\":", us,
                     ",\"gflops\":", gflops, "}");
      first_wl = false;
    }
    const double geo =
        std::exp(log_gflops / static_cast<double>(workloads.size()));
    json += StrCat("],\"geomean_gflops\":", geo, "}");
    bench::Note(StrCat(arm.name, " fused geomean: ", StrCat(geo),
                       " GFLOP/s"));
  }
  cpukernels::SetCpuPackMode(prev_pack);
  json += "]";

  // The pack knob may never change numerics: the vectorized and scalar
  // arms of one rung must agree bit-for-bit.
  auto check_identical = [&](const char* simd, const char* base) {
    const auto& a = arm_out[simd];
    const auto& b = arm_out[base];
    for (size_t i = 0; i < a.size(); ++i) {
      BOLT_CHECK_MSG(a[i].MaxAbsDiff(b[i]) == 0.0f,
                     workloads[i].name
                         << ": " << simd << " and " << base
                         << " arms diverged (pack contract violated)");
    }
  };
  auto pack_speedup = [&](const char* simd, const char* base) {
    const auto& a = arm_us[simd];
    const auto& b = arm_us[base];
    double log_sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) log_sum += std::log(b[i] / a[i]);
    return std::exp(log_sum / static_cast<double>(a.size()));
  };
  if (have_avx2) {
    check_identical("avx2", "avx2+scalarpack");
    const double sp = pack_speedup("avx2", "avx2+scalarpack");
    json += StrCat(",\"avx2_pack_speedup\":", sp);
    bench::Note(StrCat("avx2 vectorized-pack speedup: ", StrCat(sp),
                       "x (gate ", kTierGate, "x)"));
    BOLT_CHECK_MSG(sp >= kTierGate,
                   "vectorized packing + fused epilogues missed the gate "
                   "at the avx2 rung: "
                       << sp << "x < " << kTierGate << "x");
  }
  if (have_avx512) {
    check_identical("avx512", "avx512+scalarpack");
    const double sp = pack_speedup("avx512", "avx512+scalarpack");
    json += StrCat(",\"avx512_pack_speedup\":", sp);
    bench::Note(StrCat("avx512 vectorized-pack speedup: ", StrCat(sp),
                       "x (reported, gated at avx2)"));
  }
  json += "}\n";
  bench::Rule();
  bench::WriteBenchJson(out_path, json);
}

/// The --layouts acceptance gate: on NCHW-heavy workloads the ALT tuned
/// pipeline (LayoutSearchPass) must beat the fixed-NHWC pipeline
/// (LayoutTransformPass) by this geomean factor — it wins by eliding the
/// boundary transforms the fixed pipeline pays on every inference.
constexpr double kLayoutGate = 1.10;

/// Shallow elementwise merges in NCHW with `inputs` rank-4 inputs feeding
/// `ops` binary/unary ops.  The fixed-NHWC pipeline pays one boundary
/// transform per input plus one at the output; the tuned plan keeps the
/// region in NCHW and elides every one, while the elementwise work itself
/// is layout-indifferent — so the transform fraction, and the tuned win,
/// grows with the input-to-op ratio.
Workload MakeEltwiseMergeNchw(int inputs, int64_t c, int64_t hw,
                              uint64_t seed) {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  const std::vector<int64_t> shape = {1, c, hw, hw};
  Workload wl;
  const TensorDesc d(DType::kFloat16, shape, Layout::kNCHW);
  std::vector<NodeId> in;
  for (int i = 0; i < inputs; ++i) {
    const std::string name = StrCat("x", i);
    in.push_back(b.Input(name, shape));
    wl.inputs[name] = RandomTensor(d, seed + i);
  }
  // Pairwise merge tree: inputs-1 binary ops total.
  while (in.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < in.size(); i += 2) {
      next.push_back(i == 0 ? b.Mul(in[i], in[i + 1])
                            : b.Add(in[i], in[i + 1]));
    }
    if (in.size() % 2 == 1) next.push_back(in.back());
    in = std::move(next);
  }
  b.MarkOutput(in[0]);
  wl.name = StrCat("eltwise_merge", inputs, "_", hw, "x", hw, "x", c,
                   "_nchw");
  wl.graph = b.Build().value();
  wl.iters = 5;
  return wl;
}

/// Pointwise 1x1 conv with a second NCHW residual input — the conv's
/// NCHW im2col gather roughly cancels the fixed arm's faster NHWC conv,
/// so the tuned win is the elided residual-input and output transforms.
Workload MakePointwiseResidualNchw(int64_t c, int64_t hw, uint64_t seed) {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  const std::vector<int64_t> shape = {1, c, hw, hw};
  NodeId x = b.Input("x", shape);
  NodeId r = b.Input("r", shape);
  NodeId w = b.Constant(
      "w", RandomWeight(DType::kFloat16, {c, 1, 1, c}, seed));
  NodeId out = b.Activation(b.Add(b.Conv2d(x, w, Conv2dAttrs{}), r),
                            ActivationKind::kRelu);
  b.MarkOutput(out);
  Workload wl;
  wl.name = StrCat("pointwise_residual_", hw, "x", hw, "x", c, "_nchw");
  wl.graph = b.Build().value();
  const TensorDesc d(DType::kFloat16, shape, Layout::kNCHW);
  wl.inputs["x"] = RandomTensor(d, seed + 10);
  wl.inputs["r"] = RandomTensor(d, seed + 11);
  wl.iters = 5;
  return wl;
}

/// Fixed-NHWC pipeline vs ALT tuned layouts on NCHW-heavy workloads.
/// Both arms run the same fused/threaded interpreter on the rewritten
/// graph; only the layout pass differs.  Asserts two-tier agreement with
/// the naive oracle of the *original* graph for both arms and the
/// kLayoutGate geomean for the tuned one.
void RunLayoutBench(bool smoke, const std::string& out_path) {
  bench::Rule();
  bench::Note(
      "layout search: fixed-NHWC pipeline vs ALT tuned layouts "
      "(NCHW-heavy workloads)");

  std::vector<Workload> wls;
  wls.push_back(MakeEltwiseMergeNchw(2, 32, 64, 900));
  wls.push_back(MakeEltwiseMergeNchw(4, 16, 48, 920));
  wls.push_back(MakePointwiseResidualNchw(8, 56, 940));

  const DeviceSpec spec = DeviceSpec::TeslaT4();
  InterpreterOptions opts;
  opts.backend = cpukernels::Backend::kFastCpu;
  opts.fuse_epilogues = true;
  opts.parallel = true;
  opts.use_tuned_blocks = false;

  std::string json = StrCat(
      "{\"bench\":\"layout_search\",\"smoke\":", smoke ? "true" : "false",
      ",\"threads\":", cpukernels::DefaultNumThreads(), ",\"isa\":\"",
      cpukernels::CpuIsaName(cpukernels::DefaultCpuIsa()),
      "\",\"gate\":", kLayoutGate, ",\"workloads\":[");
  double log_ratio_sum = 0.0;
  bool first_wl = true;
  for (Workload& wl : wls) {
    const int iters = smoke ? 3 : wl.iters;
    const Tensor oracle = RefExecutor(wl.graph)
                              .Run(wl.inputs)
                              .value()[0];  // original-graph semantics

    PassStats fixed_stats;
    const Graph fixed = LayoutTransformPass(wl.graph, &fixed_stats);
    PassStats tuned_stats;
    const Graph tuned = LayoutSearchPass(wl.graph, spec, &tuned_stats);

    Interpreter fixed_interp(fixed, opts);
    Interpreter tuned_interp(tuned, opts);
    const double fixed_us = RunUs(fixed_interp, wl.inputs, iters);
    const double tuned_us = RunUs(tuned_interp, wl.inputs, iters);
    CheckAgainstOracle(fixed_interp.Run(wl.inputs).value()[0], oracle,
                       StrCat(wl.name, " fixed-nhwc"));
    CheckAgainstOracle(tuned_interp.Run(wl.inputs).value()[0], oracle,
                       StrCat(wl.name, " tuned-layout"));
    const double ratio = fixed_us / tuned_us;
    log_ratio_sum += std::log(ratio);
    std::printf("  %-26s fixed-nhwc %8.0f us (%d transforms)  "
                "tuned %8.0f us (%d inserted, %d elided)  %5.2fx\n",
                wl.name.c_str(), fixed_us,
                fixed_stats.layout_transforms_inserted, tuned_us,
                tuned_stats.layout_transforms_inserted,
                tuned_stats.layout_transforms_elided, ratio);
    json += StrCat(first_wl ? "" : ",", "{\"name\":", bench::JsonStr(wl.name),
                   ",\"fixed_us\":", fixed_us, ",\"tuned_us\":", tuned_us,
                   ",\"fixed_transforms\":",
                   fixed_stats.layout_transforms_inserted,
                   ",\"tuned_transforms\":",
                   tuned_stats.layout_transforms_inserted,
                   ",\"tuned_elided\":", tuned_stats.layout_transforms_elided,
                   ",\"speedup\":", ratio, "}");
    first_wl = false;
  }
  const double geomean =
      std::exp(log_ratio_sum / static_cast<double>(wls.size()));
  json += StrCat("],\"layout_geomean\":", geomean, "}\n");
  bench::Note(StrCat("tuned-layout vs fixed-NHWC geomean: ",
                     StrCat(geomean), "x (gate ", kLayoutGate, "x)"));
  BOLT_CHECK_MSG(geomean >= kLayoutGate,
                 "tuned layouts missed the gate on NCHW-heavy workloads: "
                     << geomean << "x < " << kLayoutGate << "x");
  bench::Rule();
  bench::WriteBenchJson(out_path, json);
}

}  // namespace
}  // namespace bolt

int main(int argc, char** argv) {
  using namespace bolt;
  bench::InitTrace(argc, argv);
  bool smoke = false;
  bool tuned_mode = false;
  bool tiers_mode = false;
  bool layouts_mode = false;
  std::string out_path = "BENCH_interpreter.json";
  std::string tiers_out_path = "BENCH_simd_tiers.json";
  std::string layouts_out_path = "BENCH_layout.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--tuned") == 0) tuned_mode = true;
    if (std::strcmp(argv[i], "--tiers") == 0) tiers_mode = true;
    if (std::strcmp(argv[i], "--layouts") == 0) layouts_mode = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--tiers-out=", 12) == 0) {
      tiers_out_path = argv[i] + 12;
    }
    if (std::strncmp(argv[i], "--layouts-out=", 14) == 0) {
      layouts_out_path = argv[i] + 14;
    }
  }

  bench::Title("interpreter_throughput",
               "naive loops vs blocked / threaded / epilogue-fused CPU "
               "kernels");
  bench::Note(StrCat("threads=", cpukernels::DefaultNumThreads(), ", isa=",
                     cpukernels::CpuIsaName(cpukernels::DefaultCpuIsa()),
                     smoke ? ", smoke" : ""));

  std::vector<Workload> workloads;
  workloads.push_back(MakeGemm());
  workloads.push_back(MakeResBlock());
  workloads.push_back(MakeConvNchw());
  workloads.push_back(MakeResNet(smoke));

  const std::vector<Mode> modes = Modes();
  Profiler profiler(DeviceSpec::TeslaT4());
  double log_speedup_sum = 0.0;
  int tuned_workloads = 0;
  std::string json = StrCat(
      "{\"bench\":\"interpreter_throughput\",\"smoke\":",
      smoke ? "true" : "false", ",\"tuned\":", tuned_mode ? "true" : "false",
      ",\"threads\":", cpukernels::DefaultNumThreads(), ",\"isa\":\"",
      cpukernels::CpuIsaName(cpukernels::DefaultCpuIsa()),
      "\",\"workloads\":[");

  std::vector<Tensor> oracles;  // naive reference output per workload
  bool first_wl = true;
  for (Workload& wl : workloads) {
    const double flops = GraphFlops(wl.graph);
    const int iters = smoke ? 1 : wl.iters;
    bench::Rule();
    bench::Note(StrCat(wl.name, "  (", StrCat(flops / 1e6), " MFLOP)"));
    json += StrCat(first_wl ? "" : ",", "{\"name\":",
                   bench::JsonStr(wl.name), ",\"flops\":", flops,
                   ",\"modes\":{");
    first_wl = false;

    double naive_us = 0.0, fused_us = 0.0, blocked_us = 0.0;
    Tensor naive_out;
    bool first_mode = true;
    for (const Mode& m : modes) {
      Interpreter interp(wl.graph, m.opts);
      const double us = RunUs(interp, wl.inputs, iters);
      const double gflops = flops / us / 1e3;
      if (m.name == "naive") {
        naive_us = us;
        naive_out = interp.Run(wl.inputs).value()[0];
        oracles.push_back(naive_out);
      } else {
        // Every backend mode must agree with the oracle: bit-for-bit on
        // the scalar tier, ULP-bounded under AVX2.
        Tensor got = interp.Run(wl.inputs).value()[0];
        CheckAgainstOracle(got, naive_out, StrCat(wl.name, " ", m.name));
      }
      if (m.name == "blocked") blocked_us = us;
      if (m.name == "blocked+mt+ep") fused_us = us;
      std::printf("  %-14s %12.0f us  %8.2f GFLOP/s  %6.2fx\n",
                  m.name.c_str(), us, gflops,
                  naive_us > 0 ? naive_us / us : 1.0);
      json += StrCat(first_mode ? "" : ",", bench::JsonStr(m.name),
                     ":{\"us\":", us, ",\"gflops\":", gflops, "}");
      first_mode = false;
    }
    json += StrCat("},\"speedup_blocked\":", naive_us / blocked_us,
                   ",\"speedup_fused\":", naive_us / fused_us);
    bench::Note(StrCat("speedup (blocked+mt+ep vs naive): ",
                       StrCat(naive_us / fused_us), "x"));

    if (tuned_mode) {
      // Heuristic-vs-tuned pair: identical interpreter settings, the only
      // difference is whether the tuned-block registry is consulted.
      int measured = 0;
      bool hits = false;
      const int problems =
          TuneGraphCpu(profiler, wl.graph, &measured, &hits);
      // Re-profiling the same graph must be pure cache hits: zero
      // re-measurement (the tuning-cache acceptance bar).
      int remeasured = 0;
      TuneGraphCpu(profiler, wl.graph, &remeasured, &hits);
      BOLT_CHECK_MSG(hits && remeasured == 0,
                     "second profile pass re-measured candidates");

      InterpreterOptions heuristic;
      heuristic.backend = cpukernels::Backend::kFastCpu;
      heuristic.use_tuned_blocks = false;
      InterpreterOptions tuned_opts = heuristic;
      tuned_opts.use_tuned_blocks = true;
      const double heuristic_us =
          RunUs(Interpreter(wl.graph, heuristic), wl.inputs, iters);
      Interpreter tuned_interp(wl.graph, tuned_opts);
      const double tuned_us = RunUs(tuned_interp, wl.inputs, iters);
      // Tuned execution must agree with the oracle in the same run that
      // measures it (two-tier, like the mode loop above).
      Tensor tuned_out = tuned_interp.Run(wl.inputs).value()[0];
      CheckAgainstOracle(tuned_out, naive_out, StrCat(wl.name, " tuned"));
      const double speedup = heuristic_us / tuned_us;
      log_speedup_sum += std::log(speedup);
      ++tuned_workloads;
      std::printf("  %-14s %12.0f us  vs heuristic %.0f us  %6.2fx  "
                  "(%d problems, %d candidates measured)\n",
                  "tuned", tuned_us, heuristic_us, speedup, problems,
                  measured);
      json += StrCat(",\"heuristic_us\":", heuristic_us,
                     ",\"tuned_us\":", tuned_us,
                     ",\"tuned_speedup\":", speedup,
                     ",\"cpu_problems\":", problems,
                     ",\"cpu_candidates_measured\":", measured);
    }
    json += "}";
  }
  json += "]";
  if (tuned_mode && tuned_workloads > 0) {
    const double geomean =
        std::exp(log_speedup_sum / tuned_workloads);
    bench::Rule();
    bench::Note(StrCat("tuned-vs-heuristic geomean: ", StrCat(geomean),
                       "x over ", tuned_workloads, " workloads"));
    // >= 1.0x is the target; 0.9 is the hard floor so measurement noise
    // on loaded CI machines cannot flake the run.
    BOLT_CHECK_MSG(geomean >= 0.9,
                   "tuned blocking regressed the heuristic: geomean "
                       << geomean);
    json += StrCat(",\"tuned_geomean\":", geomean);
  }
  json += "}\n";
  bench::Rule();
  bench::WriteBenchJson(out_path, json);
  if (tiers_mode) RunTierBench(workloads, oracles, smoke, tiers_out_path);
  if (layouts_mode) RunLayoutBench(smoke, layouts_out_path);
  bench::FlushTrace();
  return 0;
}
