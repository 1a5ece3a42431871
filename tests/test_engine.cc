// Tests for the Bolt engine: the full BYOC pipeline, functional
// equivalence with the reference interpreter, and per-optimization
// latency ablations.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "bolt/engine.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/tuned.h"
#include "ir/interpreter.h"
#include "models/zoo.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

Tensor RandomWeight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat16, std::move(shape)));
  Rng rng(seed);
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  t.Quantize();
  return t;
}

/// Small CNN exercising every optimization: NCHW input (layout pass),
/// conv+bias+act chains (epilogue fusion), 3x3 -> 1x1 (persistent
/// fusion), dense head. 46 input channels on the second conv would be
/// unusual; keep channels aligned here and test padding separately.
Graph BuildSmallCnn() {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  NodeId x = b.Input("data", {2, 3, 12, 12}, Layout::kNCHW);
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, b.Constant("w0", RandomWeight({16, 3, 3, 3}, 1)),
                      a, "conv0");
  y = b.BiasAdd(y, b.Constant("b0", RandomWeight({16}, 2)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Conv2d(y, b.Constant("w1", RandomWeight({16, 1, 1, 16}, 3)),
               Conv2dAttrs{}, "conv1");
  y = b.BiasAdd(y, b.Constant("b1", RandomWeight({16}, 4)));
  y = b.Activation(y, ActivationKind::kHardswish);
  y = b.GlobalAvgPool(y);
  y = b.Flatten(y);
  y = b.Dense(y, b.Constant("wf", RandomWeight({10, 16}, 5)), "fc");
  y = b.BiasAdd(y, b.Constant("bf", RandomWeight({10}, 6)));
  y = b.Softmax(y);
  b.MarkOutput(y);
  auto g = b.Build();
  BOLT_CHECK(g.ok());
  return std::move(g).value();
}

Tensor RandomInput(uint64_t seed = 77) {
  Tensor t(TensorDesc(DType::kFloat16, {2, 3, 12, 12}, Layout::kNCHW));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.7f);
  t.Quantize();
  return t;
}

TEST(EngineTest, CompilesAndRunsMatchingInterpreter) {
  Graph g = BuildSmallCnn();
  auto engine = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::map<std::string, Tensor> inputs{{"data", RandomInput()}};
  auto out = engine->Run(inputs);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Reference on the layout-normalized primitive graph.
  auto ref = Interpreter(LayoutTransformPass(g)).Run(inputs);
  ASSERT_TRUE(ref.ok());
  // Fused epilogues keep FP32 until the final store; allow a few FP16
  // ulps relative to the per-op-quantized reference.
  EXPECT_LE(out.value()[0].MaxAbsDiff(ref.value()[0]), 5e-3f);
}

TEST(EngineTest, AppliesAllPasses) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  const PassStats& stats = engine->tuning_report().pass_stats;
  EXPECT_GE(stats.epilogues_fused, 4);
  EXPECT_EQ(stats.persistent_fused, 1);  // conv0+conv1 pair
  EXPECT_GE(stats.layout_transforms_inserted, 1);
}

TEST(EngineTest, EpilogueFusionReducesLatency) {
  Graph g = BuildSmallCnn();
  CompileOptions with;
  CompileOptions without;
  without.enable_epilogue_fusion = false;
  without.enable_persistent_fusion = false;  // isolate the effect
  CompileOptions with_epi = without;
  with_epi.enable_epilogue_fusion = true;
  auto fast = Engine::Compile(g, with_epi);
  auto slow = Engine::Compile(g, without);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_LT(fast->EstimatedLatencyUs(), slow->EstimatedLatencyUs());
}

TEST(EngineTest, PersistentFusionReducesLatencyAndLaunches) {
  Graph g = BuildSmallCnn();
  CompileOptions base;
  base.enable_persistent_fusion = false;
  auto unfused = Engine::Compile(g, base);
  auto fused = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(unfused.ok());
  ASSERT_TRUE(fused.ok());
  EXPECT_LE(fused->EstimatedLatencyUs(), unfused->EstimatedLatencyUs());
  EXPECT_LT(fused->module().num_device_launches(),
            unfused->module().num_device_launches());
}

TEST(EngineTest, DisablingFusionStillMatchesInterpreter) {
  Graph g = BuildSmallCnn();
  CompileOptions opts;
  opts.enable_epilogue_fusion = false;
  opts.enable_persistent_fusion = false;
  opts.enable_padding = false;
  auto engine = Engine::Compile(g, opts);
  ASSERT_TRUE(engine.ok());
  std::map<std::string, Tensor> inputs{{"data", RandomInput(123)}};
  auto out = engine->Run(inputs);
  ASSERT_TRUE(out.ok());
  auto ref = Interpreter(LayoutTransformPass(g)).Run(inputs);
  ASSERT_TRUE(ref.ok());
  EXPECT_LE(out.value()[0].MaxAbsDiff(ref.value()[0]), 5e-3f);
}

TEST(EngineTest, FlattenOfAnNchwMapMatchesReference) {
  // NCHW 1x1 conv on a 3x3 map -> Flatten -> Dense: the model flattens
  // NCHW data, so Compile must hand the flatten NCHW data too.
  Rng rng(21);
  auto weight = [&rng](std::vector<int64_t> shape) {
    Tensor t(TensorDesc(DType::kFloat32, std::move(shape)));
    rng.FillNormal(t.data(), 0.3f);
    return t;
  };
  GraphBuilder b(DType::kFloat32, Layout::kNCHW);
  NodeId x = b.Input("data", {1, 8, 3, 3}, Layout::kNCHW);
  NodeId y = b.Conv2d(x, b.Constant("w", weight({8, 1, 1, 8})),
                      Conv2dAttrs{}, "conv");
  y = b.Dense(b.Flatten(y), b.Constant("fc_w", weight({10, 72})), "fc");
  b.MarkOutput(y);
  const Graph g = b.Build().value();

  auto engine = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::map<std::string, Tensor> in = {
      {"data", difftest::RandomTensor(g.node(g.input_ids()[0]).out_desc, 5)}};
  auto got = engine->Run(in);
  auto want = RefExecutor(g).Run(in);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(difftest::CheckDiff(
      "engine_flatten", (*got)[0], (*want)[0],
      difftest::ToleranceFor(
          cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto),
          DType::kFloat32)));
}

TEST(EngineTest, NchwResNetHasOneBoundaryTransform) {
  // The only transform is the input's: the head flattens a 1x1 map, whose
  // element order is the same in NCHW and NHWC, so none is needed there.
  models::ModelOptions o;
  o.batch = 1;
  o.image_size = 32;
  o.num_classes = 10;
  auto g = models::BuildResNetWithBatchNorm(18, o);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->tuning_report().pass_stats.layout_transforms_inserted, 1);
  const Graph& opt = engine->optimized_graph();
  int transforms = 0, convs = 0;
  for (const Node& n : opt.nodes()) {
    transforms += n.kind == OpKind::kLayoutTransform;
    if (n.kind == OpKind::kBoltConv2d) {
      ++convs;
      EXPECT_EQ(opt.node(n.inputs[0]).out_desc.layout, Layout::kNHWC)
          << n.name;
    }
  }
  EXPECT_EQ(transforms, 1);
  EXPECT_GT(convs, 0);
}

TEST(EngineTest, GeneratesCutlassConventionSources) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  const std::string source = engine->module().FullSource();
  EXPECT_TRUE(Contains(source, "cutlite::gemm::device::Gemm"));
  EXPECT_TRUE(Contains(source, "B2bImplicitGemmConvolution"));
  EXPECT_TRUE(Contains(source, "Auto-generated by Bolt"));
  // Every device launch besides padding references an emitted kernel.
  for (const auto& launch : engine->module().launches()) {
    if (launch.kind == codegen::LaunchKind::kGemm ||
        launch.kind == codegen::LaunchKind::kConv) {
      EXPECT_TRUE(engine->module().sources().count(launch.kernel_name))
          << launch.kernel_name;
    }
  }
}

TEST(EngineTest, FoldedLayoutTransformHasNoLaunch) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  bool found_folded = false;
  for (const auto& launch : engine->module().launches()) {
    if (launch.kernel_name == "folded_layout_transform") {
      found_folded = true;
    }
  }
  EXPECT_TRUE(found_folded);
}

TEST(EngineTest, TuningReportAccountsProfilerWork) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  const TuningReport& r = engine->tuning_report();
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.workloads_profiled, 0);
  EXPECT_GT(r.candidates_tried, 0);
  // Minutes, not hours, for a tiny model.
  EXPECT_LT(r.seconds, 10 * 60.0);
}

TEST(EngineTest, MissingInputRejected) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  auto out = engine->Run({});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, MisShapedInputRejected) {
  // The fused kernels are planned from the declared descs; a tensor of a
  // different shape must come back as a Status, not abort or over-read.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {8, 64});
  NodeId y = b.Dense(x, b.Constant("w", RandomWeight({64, 64}, 41)));
  y = b.Add(y, b.Constant("r", RandomWeight({8, 64}, 42)));
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok());

  Tensor input(TensorDesc(DType::kFloat16, {16, 64}));
  auto out = engine->Run({{"x", input}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(out.status().message(), "input tensor x "));
}

TEST(EngineTest, InputOfAnotherDtypeOrLayoutRejected) {
  // An FP16 NHWC conv+ReLU.  The kernels read dtype and layout from the
  // declared desc, so every executor must refuse a tensor that disagrees
  // and take an unlabelled (kAny) tensor in the declared layout.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 16}, Layout::kNHWC);
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, b.Constant("w", RandomWeight({16, 3, 3, 16}, 51)),
                      a, "conv");
  y = b.Activation(y, ActivationKind::kRelu);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok());
  const Interpreter interp(*g);
  const RefExecutor ref(*g);
  using RunFn = std::function<Result<std::vector<Tensor>>(const Tensor&)>;
  const std::vector<std::pair<std::string, RunFn>> runners = {
      {"Engine::Run",
       [&](const Tensor& t) { return engine->Run({{"x", t}}); }},
      {"Interpreter",
       [&](const Tensor& t) { return interp.Run({{"x", t}}); }},
      {"RefExecutor", [&](const Tensor& t) { return ref.Run({{"x", t}}); }},
  };

  Tensor nhwc(TensorDesc(DType::kFloat16, {1, 8, 8, 16}, Layout::kNHWC));
  Rng rng(52);
  rng.FillNormal(nhwc.data(), 0.7f);
  nhwc.Quantize();
  const Tensor fp32 = nhwc.Cast(DType::kFloat32);
  const Tensor nchw(TensorDesc(DType::kFloat16, {1, 8, 8, 16}, Layout::kNCHW),
                    nhwc.data());
  const Tensor any(TensorDesc(DType::kFloat16, {1, 8, 8, 16}, Layout::kAny),
                   nhwc.data());
  for (const auto& [name, run] : runners) {
    SCOPED_TRACE(name);
    for (const Tensor* bad : {&fp32, &nchw}) {
      auto out = run(*bad);
      ASSERT_FALSE(out.ok()) << bad->desc().ToString();
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(Contains(out.status().message(), "input tensor x "));
    }
    auto want = run(nhwc);
    auto got = run(any);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ((*got)[0].desc(), (*want)[0].desc());
    EXPECT_EQ((*got)[0].MaxAbsDiff((*want)[0]), 0.0f);
  }
}

TEST(EngineTest, PrimitiveHostOpsMatchReference) {
  // A dilated conv is the one conv EpilogueFusionPass leaves primitive, so
  // it and every op below run through the interpreter step inside Run:
  // conv -> BiasAdd -> relu -> Add(residual) folds into one launch,
  // Add(y, y) must copy, and the Mul may steal only its right operand
  // because its left one is also a graph output.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 9, 9, 8});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 2;
  a.dilation_h = a.dilation_w = 2;
  NodeId y = b.Conv2d(x, b.Constant("w", RandomWeight({8, 3, 3, 8}, 43)), a);
  y = b.BiasAdd(y, b.Constant("b", RandomWeight({8}, 44)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Add(y, x);
  NodeId z = b.Add(y, y);
  NodeId out = b.Mul(z, b.Activation(x, ActivationKind::kSigmoid));
  b.MarkOutput(z);
  b.MarkOutput(out);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok());
  int primitive_convs = 0;
  for (const Node& n : engine->optimized_graph().nodes()) {
    primitive_convs += n.kind == OpKind::kConv2d;
  }
  ASSERT_EQ(primitive_convs, 1);

  Tensor input(TensorDesc(DType::kFloat16, {1, 9, 9, 8}, Layout::kNHWC));
  Rng rng(45);
  rng.FillNormal(input.data(), 0.5f);
  input.Quantize();
  std::map<std::string, Tensor> inputs{{"x", input}};
  auto got = engine->Run(inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = RefExecutor(*g).Run(inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->size(), 2u);
  // Bit-identical on the scalar tier, ULP-bounded on a forced SIMD tier.
  const difftest::Tolerance tol = difftest::ToleranceFor(
      cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto), DType::kFloat16);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(difftest::CheckDiff("engine_host_ops", (*got)[i],
                                    (*want)[i], tol))
        << "output " << i;
  }
}

// Bit-for-bit tensor equality (zero signs included).
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.desc() == b.desc() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

void ExpectSameOutputs(const std::vector<Tensor>& got,
                       const std::vector<Tensor>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i], want[i])) << what << " output " << i;
  }
}

// Each constant's bytes must match the snapshot taken before any run.
void ExpectConstantsUnchanged(const Graph& g,
                              const std::map<NodeId, Tensor>& snapshot) {
  ASSERT_EQ(g.constants().size(), snapshot.size());
  for (const auto& [id, value] : snapshot) {
    EXPECT_TRUE(SameBits(g.constant(id), value))
        << "constant " << g.node(id).name << " was written";
  }
}

TEST(EngineTest, ConstantsStayReadOnly) {
  // Constants are bound by reference, so every in-place path must leave
  // them alone: an Add whose single-use left operand is a constant (the
  // buffer-stealing candidate), an activation and a Cast of a constant,
  // and a constant that is itself a graph output.
  GraphBuilder b(DType::kFloat16, Layout::kRowMajor);
  const NodeId x = b.Input("x", {4, 8});
  b.MarkOutput(b.Add(b.Constant("c_add", RandomWeight({4, 8}, 61)), x));
  b.MarkOutput(b.Activation(b.Constant("c_act", RandomWeight({4, 8}, 62)),
                            ActivationKind::kRelu));
  b.MarkOutput(
      b.Cast(b.Constant("c_cast", RandomWeight({4, 8}, 63)), DType::kFloat32));
  b.MarkOutput(b.Constant("c_out", RandomWeight({4, 8}, 64)));
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Tensor input(TensorDesc(DType::kFloat16, {4, 8}, Layout::kRowMajor));
  Rng rng(65);
  rng.FillNormal(input.data(), 0.5f);
  input.Quantize();
  const std::map<std::string, Tensor> inputs{{"x", input}};
  const Graph& og = engine->optimized_graph();
  const std::map<NodeId, Tensor> engine_snapshot = og.constants();
  const std::map<NodeId, Tensor> graph_snapshot = g->constants();

  auto first = engine->Run(inputs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 4u);
  for (int run = 0; run < 2; ++run) {
    auto again = engine->Run(inputs);
    ASSERT_TRUE(again.ok());
    ExpectSameOutputs(*again, *first, StrCat("engine run ", run + 2));
  }
  std::vector<Result<std::vector<Tensor>>> concurrent(
      4, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (auto& slot : concurrent) {
    threads.emplace_back([&] { slot = engine->Run(inputs); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& out : concurrent) {
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSameOutputs(*out, *first, "concurrent engine run");
  }
  ExpectConstantsUnchanged(og, engine_snapshot);

  const Interpreter interp(*g);
  for (int run = 0; run < 3; ++run) {
    auto out = interp.Run(inputs);
    ASSERT_TRUE(out.ok());
    ExpectSameOutputs(*out, *first, StrCat("interpreter run ", run + 1));
  }
  ExpectConstantsUnchanged(*g, graph_snapshot);
}

TEST(EngineTest, PaddingTriggersOnUnalignedProductionConv) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {32, 20, 26, 46});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 2;
  NodeId y = b.Conv2d(
      x, b.Constant("w", RandomWeight({32, 5, 5, 46}, 11)), a);
  y = b.BiasAdd(y, b.Constant("bias", RandomWeight({32}, 12)));
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  auto padded = Engine::Compile(*g, CompileOptions{});
  CompileOptions no_pad;
  no_pad.enable_padding = false;
  auto unpadded = Engine::Compile(*g, no_pad);
  ASSERT_TRUE(padded.ok());
  ASSERT_TRUE(unpadded.ok());
  EXPECT_EQ(padded->tuning_report().pass_stats.tensors_padded, 1);
  EXPECT_LT(padded->EstimatedLatencyUs(), unpadded->EstimatedLatencyUs());

  // Functional equivalence with padding enabled.
  Tensor input(TensorDesc(DType::kFloat16, {32, 20, 26, 46},
                          Layout::kNHWC));
  Rng rng(13);
  rng.FillNormal(input.data(), 0.5f);
  input.Quantize();
  std::map<std::string, Tensor> inputs{{"x", input}};
  auto out = padded->Run(inputs);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto ref = Interpreter(*g).Run(inputs);
  ASSERT_TRUE(ref.ok());
  EXPECT_LE(out.value()[0].MaxAbsDiff(ref.value()[0]), 5e-3f);
}

TEST(EngineTest, MultiOutputGraph) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 8});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y1 = b.Conv2d(x, b.Constant("w1", RandomWeight({8, 3, 3, 8}, 21)),
                       a);
  NodeId y2 = b.Activation(x, ActivationKind::kGelu);
  b.MarkOutput(y1);
  b.MarkOutput(y2);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok());

  Tensor input(TensorDesc(DType::kFloat16, {1, 8, 8, 8}, Layout::kNHWC));
  Rng rng(22);
  rng.FillNormal(input.data(), 0.5f);
  input.Quantize();
  std::map<std::string, Tensor> inputs{{"x", input}};
  auto out = engine->Run(inputs);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
  auto ref = Interpreter(*g).Run(inputs);
  ASSERT_TRUE(ref.ok());
  EXPECT_LE(out.value()[0].MaxAbsDiff(ref.value()[0]), 5e-3f);
  EXPECT_LE(out.value()[1].MaxAbsDiff(ref.value()[1]), 5e-3f);
}

TEST(EngineTest, TimingOnlyGraphRejectsFunctionalRun) {
  // Desc-only weights compile fine (timing) but cannot execute.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 8});
  NodeId w = b.ConstantDesc("w", TensorDesc(DType::kFloat16, {8, 3, 3, 8}));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w, a);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok());
  EXPECT_GT(engine->EstimatedLatencyUs(), 0.0);

  Tensor input(TensorDesc(DType::kFloat16, {1, 8, 8, 8}, Layout::kNHWC));
  auto out = engine->Run({{"x", input}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, LaunchRecordsReferenceOptimizedNodes) {
  auto engine = Engine::Compile(BuildSmallCnn(), CompileOptions{});
  ASSERT_TRUE(engine.ok());
  const Graph& g = engine->optimized_graph();
  for (const auto& launch : engine->module().launches()) {
    ASSERT_GE(launch.node, 0);
    ASSERT_LT(launch.node, g.num_nodes());
    EXPECT_GE(launch.estimated_us, 0.0);
  }
  // Total latency equals the sum of launch records.
  double sum = 0.0;
  for (const auto& l : engine->module().launches()) sum += l.estimated_us;
  EXPECT_NEAR(sum, engine->EstimatedLatencyUs(), 1e-9);
}

// ---- bolt.* composites run as interpreter KernelSteps ---------------------

std::map<std::string, Tensor> RandomInputsFor(const Graph& g, uint64_t seed) {
  std::map<std::string, Tensor> in;
  for (NodeId id : g.input_ids()) {
    in[g.node(id).name] = difftest::RandomTensor(g.node(id).out_desc, seed++);
  }
  return in;
}

// The one node of `kind` in the engine's optimized graph.
const Node& OnlyNodeOfKind(const Engine& engine, OpKind kind) {
  const Node* found = nullptr;
  for (const Node& n : engine.optimized_graph().nodes()) {
    if (n.kind != kind) continue;
    EXPECT_EQ(found, nullptr) << "more than one " << OpKindName(kind);
    found = &n;
  }
  BOLT_CHECK_MSG(found != nullptr, "no " << OpKindName(kind) << " node");
  return *found;
}

int64_t TunedHits() {
  return metrics::Registry::Global()
      .GetCounter("cpu.tuned.lookup.hit")
      .value();
}

// Registers a valid non-default block for the problem of the one `kind`
// composite in `g`'s compiled form: Run must look it up (one hit) and
// still match the registry-miss run bit for bit.
void ExpectTunedHitMatchesMiss(const Graph& g, OpKind kind) {
  cpukernels::ClearTunedBlocks();
  auto engine = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Graph& og = engine->optimized_graph();
  const Node& n = OnlyNodeOfKind(*engine, kind);
  const std::vector<int64_t>& out = n.out_desc.shape;
  const std::vector<int64_t>& w = og.node(n.inputs[1]).out_desc.shape;
  const bool conv = kind == OpKind::kBoltConv2d;
  const int64_t m = conv ? out[0] * out[1] * out[2] : out[0];
  const int64_t cols = conv ? out[3] : out[1];
  const int64_t depth = conv ? w[1] * w[2] * w[3] : w[1];

  const auto in = RandomInputsFor(g, 91);
  auto miss = engine->Run(in);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  // The default block is 64x4096/kc256, so this one is observably
  // different; the hit proves the registry entry is the one consulted.
  auto tuned = cpukernels::BlockConfig::Make(8, 16, 8);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(
      conv ? cpukernels::TunedKind::kConv : cpukernels::TunedKind::kGemm, m,
      cols, depth, tuned.value(),
      conv ? Layout::kNHWC : Layout::kRowMajor));
  const int64_t hits0 = TunedHits();
  auto hit = engine->Run(in);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(TunedHits(), hits0 + 1) << OpKindName(kind);
  ExpectSameOutputs(*hit, *miss, StrCat(OpKindName(kind), " tuned hit"));
  cpukernels::ClearTunedBlocks();
}

TEST(EngineCompositeTest, CompositesConsultTheTunedRegistry) {
  if (cpukernels::DefaultBackend() != cpukernels::Backend::kFastCpu) {
    GTEST_SKIP() << "the reference backend never reads the registry";
  }
  GraphBuilder gb(DType::kFloat16, Layout::kRowMajor);
  NodeId x = gb.Input("x", {32, 128}, Layout::kRowMajor);
  NodeId y = gb.Dense(x, gb.Constant("w", RandomWeight({64, 128}, 71)));
  y = gb.BiasAdd(y, gb.Constant("b", RandomWeight({64}, 72)));
  gb.MarkOutput(gb.Activation(y, ActivationKind::kRelu));
  ExpectTunedHitMatchesMiss(gb.Build().value(), OpKind::kBoltGemm);

  GraphBuilder cb(DType::kFloat16, Layout::kNHWC);
  x = cb.Input("x", {1, 6, 6, 16});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  y = cb.Conv2d(x, cb.Constant("w", RandomWeight({24, 3, 3, 16}, 73)), a);
  y = cb.BiasAdd(y, cb.Constant("b", RandomWeight({24}, 74)));
  cb.MarkOutput(cb.Activation(y, ActivationKind::kRelu));
  ExpectTunedHitMatchesMiss(cb.Build().value(), OpKind::kBoltConv2d);
}

// A persistent kernel runs its stages back to back on the host kernels,
// so it must equal the same graph compiled without persistent fusion bit
// for bit: each stage quantizes its output exactly as the unfused kernel
// stores it.
void ExpectFusedMatchesUnfused(const Graph& g, OpKind fused_kind) {
  auto fused = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(OnlyNodeOfKind(*fused, fused_kind).attrs.GetInt("stages"), 2);
  CompileOptions no_fusion;
  no_fusion.enable_persistent_fusion = false;
  auto unfused = Engine::Compile(g, no_fusion);
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  for (const Node& n : unfused->optimized_graph().nodes()) {
    EXPECT_NE(n.kind, fused_kind);
  }
  const auto in = RandomInputsFor(g, 93);
  auto want = unfused->Run(in);
  auto got = fused->Run(in);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameOutputs(*got, *want, OpKindName(fused_kind));
}

TEST(EngineCompositeTest, B2bGemmMatchesUnfusedExactly) {
  // The memory-bound dense -> relu -> dense -> relu chain of Table 1.
  GraphBuilder b(DType::kFloat16, Layout::kRowMajor);
  NodeId x = b.Input("x", {16384, 256}, Layout::kRowMajor);
  x = b.Activation(b.Dense(x, b.Constant("w0", RandomWeight({64, 256}, 81))),
                   ActivationKind::kRelu);
  x = b.Activation(b.Dense(x, b.Constant("w1", RandomWeight({16, 64}, 82))),
                   ActivationKind::kRelu);
  b.MarkOutput(x);
  ExpectFusedMatchesUnfused(b.Build().value(), OpKind::kBoltB2BGemm);
}

TEST(EngineCompositeTest, B2bConvMatchesUnfusedExactly) {
  // conv0 (3x3) + conv1 (1x1) of the small CNN fuse persistently.
  ExpectFusedMatchesUnfused(BuildSmallCnn(), OpKind::kBoltB2BConv);
}

TEST(EngineCompositeTest, MovedEngineRunsConcurrentlyBitExactly) {
  // The interpreter built at Compile refers to the engine's graph; moving
  // the engine (a vector reallocation, then into a shared_ptr) must keep
  // that reference valid, and one const engine serves concurrent callers.
  std::vector<Engine> engines;
  engines.reserve(1);
  engines.push_back(Engine::Compile(BuildSmallCnn(), CompileOptions{}).value());
  const std::map<std::string, Tensor> inputs{{"data", RandomInput(31)}};
  auto first = engines[0].Run(inputs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  engines.push_back(Engine::Compile(BuildSmallCnn(), CompileOptions{}).value());
  const auto shared = std::make_shared<const Engine>(std::move(engines[0]));
  engines.clear();

  std::vector<Result<std::vector<Tensor>>> outs(4,
                                                Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (auto& slot : outs) {
    threads.emplace_back([&slot, &shared, &inputs] {
      slot = shared->Run(inputs);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& out : outs) {
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSameOutputs(*out, *first, "moved engine run");
  }
}

}  // namespace
}  // namespace bolt
