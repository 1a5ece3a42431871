// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// End-to-end tier differential (label: tolerance): whole models through
// the real execution path, held to the numeric contract of the ISA rung
// the process resolves by default (docs/CPU_BACKEND.md).
//
//  * Engine::Compile at default options + Run on small zoo models
//    (ResNet-18/50 with BatchNorm, RepVGG-A0, VGG-11) built in NCHW,
//    NHWC and NCHWc, FP16 and FP32, and on a BERT-GEMM graph, against
//    RefExecutor on the input graph under the whole-model bound
//    (CheckModelDiff).
//  * The same graphs through the fast Interpreter — as built, and after
//    LayoutSearchPass, which moves block-aligned regions to NCHWc —
//    against RefExecutor under the per-op tier (ToleranceFor of
//    DefaultCpuIsa()).  FP16 graphs must stay bit-exact at every rung:
//    an FP16 x FP16 product is exact in FP32, so the one FMA rounding of
//    a SIMD rung equals the scalar multiply-then-add rounding.
//  * A served MLP's two bucket engines: every row of the batch-8 engine's
//    RunBatch is bit-identical to the batch-1 engine's Run of that row
//    (the serving layer and perfbench's mlp_serve gate rely on this).
//
// There is no in-process ISA knob: the test presets (isa-scalar,
// isa-avx2, isa-avx512 and the default) supply the rungs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "bolt/engine.h"
#include "bolt/passes.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cpukernels/cpuinfo.h"
#include "ir/interpreter.h"
#include "models/zoo.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

using difftest::CheckDiff;
using difftest::CheckModelDiff;

using Inputs = std::map<std::string, Tensor>;

/// The per-op tier the fast interpreter holds on a whole graph: bit-exact
/// for FP16 at every rung, ToleranceFor(DefaultCpuIsa()) otherwise.
difftest::Tolerance InterpreterTier(DType dtype) {
  if (dtype == DType::kFloat16) return difftest::Tolerance{};
  return difftest::ToleranceFor(cpukernels::DefaultCpuIsa(), dtype);
}

void ExpectEngineWithinModelBound(const std::string& what, const Graph& g,
                                  const Inputs& in,
                                  const std::vector<Tensor>& want) {
  SCOPED_TRACE(what);
  auto engine = Engine::Compile(g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto got = engine->Run(in);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(CheckModelDiff("model_engine", (*got)[i], want[i]))
        << "output " << i;
  }
}

/// Runs `g` on a default fast Interpreter against the reference outputs
/// `want` of the graph it was derived from.
void ExpectInterpreterHoldsTier(const std::string& what, const Graph& g,
                                const Inputs& in,
                                const std::vector<Tensor>& want) {
  SCOPED_TRACE(what);
  auto got = Interpreter(g).Run(in);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(CheckDiff("model_interpreter", (*got)[i], want[i],
                          InterpreterTier(want[i].dtype())))
        << "output " << i;
  }
}

int CountNchwc(const Graph& g) {
  int count = 0;
  for (const Node& n : g.nodes()) {
    count += n.out_desc.layout == Layout::kNCHWc ? 1 : 0;
  }
  return count;
}

struct ZooCase {
  const char* name;
  Layout layout;
  DType dtype;
};

// Every model in the zoo's default NCHW/FP16 form, NHWC and NCHWc builds,
// and FP32 builds (where the SIMD rungs really round differently from
// scalar).
constexpr ZooCase kZooCases[] = {
    {"resnet18", Layout::kNCHW, DType::kFloat16},
    {"resnet50", Layout::kNCHW, DType::kFloat16},
    {"repvgg_a0", Layout::kNCHW, DType::kFloat16},
    {"vgg11", Layout::kNCHW, DType::kFloat16},
    {"resnet18", Layout::kNHWC, DType::kFloat16},
    {"repvgg_a0", Layout::kNHWC, DType::kFloat16},
    {"resnet50", Layout::kNHWC, DType::kFloat32},
    {"repvgg_a0", Layout::kNCHW, DType::kFloat32},
    {"resnet18", Layout::kNCHWc, DType::kFloat16},
    {"resnet18", Layout::kNCHWc, DType::kFloat32},
};

Result<Graph> BuildZooModel(const ZooCase& c) {
  models::RepVggOptions o;
  o.batch = 1;
  o.image_size = 32;
  o.num_classes = 10;
  o.dtype = c.dtype;
  o.layout = c.layout;
  o.materialize_weights = true;
  // NCHWc needs the channel count to be a multiple of the block width.
  if (c.layout == Layout::kNCHWc) o.in_channels = kNCHWcBlock;
  const std::string name = c.name;
  if (name == "resnet18") return models::BuildResNetWithBatchNorm(18, o);
  if (name == "resnet50") return models::BuildResNetWithBatchNorm(50, o);
  if (name == "repvgg_a0") {
    return models::BuildRepVgg(models::RepVggVariant::kA0, o);
  }
  return models::BuildVgg(11, o);
}

TEST(ModelTierTest, ZooModelsHoldTheirTierAtEveryLayout) {
  // Materializing the weights dominates this test's time; build the
  // models concurrently and check them in order.
  std::vector<std::future<Result<Graph>>> built;
  for (const ZooCase& c : kZooCases) {
    built.push_back(std::async(std::launch::async, BuildZooModel, c));
  }
  // Launch-free costs let the planner pick NCHWc on these small graphs.
  DeviceSpec spec = DeviceSpec::TeslaT4();
  spec.kernel_launch_us = 0.0;
  int nchwc_nodes = 0;
  uint64_t seed = 1;
  for (size_t i = 0; i < built.size(); ++i) {
    const ZooCase& c = kZooCases[i];
    const Result<Graph> g = built[i].get();
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    const std::string what =
        StrCat(c.name, " ", LayoutName(c.layout), " ", DTypeName(c.dtype));
    const Node& input = g->node(g->input_ids()[0]);
    const Inputs in = {
        {input.name, difftest::RandomTensor(input.out_desc, seed++)}};
    auto want = RefExecutor(*g).Run(in);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    ExpectEngineWithinModelBound(what, *g, in, *want);
    ExpectInterpreterHoldsTier(what, *g, in, *want);
    const Graph searched = LayoutSearchPass(*g, spec, nullptr);
    nchwc_nodes += CountNchwc(searched);
    ExpectInterpreterHoldsTier(what + " searched", searched, in, *want);
  }
  // The NCHWc kernels really ran (VGG-11's block-aligned trunk).
  EXPECT_GT(nchwc_nodes, 0);
}

Tensor Fp32Weight(std::vector<int64_t> shape, Rng& rng) {
  Tensor t(TensorDesc(DType::kFloat32, std::move(shape)));
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  return t;
}

/// One BERT encoder layer's GEMMs (QKV + bias; FFN up + bias + GELU, FFN
/// down + bias + residual) at a reduced hidden size.
Graph BertGemms(int64_t rows, Rng& rng) {
  constexpr int64_t kHidden = 128, kQkv = 384, kFfn = 512;
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  const NodeId x = b.Input("x", {rows, kHidden});
  auto weight = [&](const char* name, std::vector<int64_t> shape) {
    return b.Constant(name, Fp32Weight(std::move(shape), rng));
  };
  NodeId qkv = b.Dense(x, weight("w_qkv", {kQkv, kHidden}));
  qkv = b.BiasAdd(qkv, weight("b_qkv", {kQkv}));
  NodeId h = b.Dense(x, weight("w_ffn1", {kFfn, kHidden}));
  h = b.BiasAdd(h, weight("b_ffn1", {kFfn}));
  h = b.Activation(h, ActivationKind::kGelu);
  NodeId y = b.Dense(h, weight("w_ffn2", {kHidden, kFfn}));
  y = b.BiasAdd(y, weight("b_ffn2", {kHidden}));
  b.MarkOutput(qkv);
  b.MarkOutput(b.Add(y, x));
  return b.Build().value();
}

TEST(ModelTierTest, BertGemmsHoldTheirTier) {
  for (int64_t rows : {1, 5, 64}) {
    Rng rng(static_cast<uint64_t>(rows));
    const Graph g = BertGemms(rows, rng);
    Tensor x(TensorDesc(DType::kFloat32, {rows, 128}, Layout::kRowMajor));
    rng.FillNormal(x.data(), 1.0f);
    const Inputs in = {{"x", x}};
    auto want = RefExecutor(g).Run(in);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const std::string what = StrCat("bert rows=", rows);
    ExpectEngineWithinModelBound(what, g, in, *want);
    ExpectInterpreterHoldsTier(what, g, in, *want);
  }
}

/// The serving MLP: FP32 16 -> 64 -> ReLU -> 16 -> softmax with fixed
/// weights, so every bucket's engine computes the same function.
Graph ServedMlp(int64_t batch) {
  Rng rng(42);
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  NodeId y = b.Dense(b.Input("x", {batch, 16}),
                     b.Constant("w0", Fp32Weight({64, 16}, rng)), "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({64}, rng)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({16, 64}, rng)), "fc1");
  b.MarkOutput(b.Softmax(y));
  return b.Build().value();
}

TEST(ModelTierTest, ServedMlpBatchRowsMatchBatchOneRun) {
  // The two bucket engines a server with buckets {1, 8} compiles.
  const Graph g1 = ServedMlp(1);
  auto one = Engine::Compile(g1, CompileOptions{});
  auto eight = Engine::Compile(ServedMlp(8), CompileOptions{});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(eight.ok()) << eight.status().ToString();
  Rng rng(7);
  for (size_t requests : {1, 3, 8}) {
    std::vector<Tensor> rows;
    for (size_t i = 0; i < requests; ++i) {
      Tensor x(TensorDesc(DType::kFloat32, {1, 16}, Layout::kRowMajor));
      rng.FillNormal(x.data(), 0.7f);
      rows.push_back(std::move(x));
    }
    auto batched = eight->RunBatch(rows);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      auto alone = one->Run({{"x", rows[i]}});
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      const Tensor& got = (*batched)[i][0];
      const Tensor& want = (*alone)[0];
      ASSERT_EQ(got.data().size(), want.data().size());
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            want.data().size() * sizeof(float)),
                0)
          << "request " << i << " of " << requests;
      auto ref = RefExecutor(g1).Run({{"x", rows[i]}});
      ASSERT_TRUE(ref.ok());
      EXPECT_TRUE(CheckModelDiff("model_served_mlp", want, (*ref)[0]));
    }
  }
}

}  // namespace
}  // namespace bolt
