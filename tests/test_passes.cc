// Tests for Bolt's graph passes: layout transform, epilogue fusion,
// persistent-kernel fusion, and padding — each as an isolated rewrite.

#include <gtest/gtest.h>

#include "bolt/passes.h"
#include "common/rng.h"
#include "cpukernels/cpuinfo.h"
#include "ir/interpreter.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

Tensor RandomWeight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat16, std::move(shape)));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.3f);
  t.Quantize();
  return t;
}

/// conv(3x3) -> bias -> relu -> conv(1x1) -> bias -> relu, NCHW input.
Graph BuildConvChain(bool materialize = true) {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  NodeId x = b.Input("data", {1, 8, 10, 10}, Layout::kNCHW);
  NodeId w1 = materialize
                  ? b.Constant("w1", RandomWeight({16, 3, 3, 8}, 1))
                  : b.ConstantDesc("w1",
                                   TensorDesc(DType::kFloat16,
                                              {16, 3, 3, 8}));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w1, a, "conv0");
  y = b.BiasAdd(y, b.Constant("b1", RandomWeight({16}, 2)));
  y = b.Activation(y, ActivationKind::kRelu);
  NodeId w2 = b.Constant("w2", RandomWeight({16, 1, 1, 16}, 3));
  y = b.Conv2d(y, w2, Conv2dAttrs{}, "conv1");
  y = b.BiasAdd(y, b.Constant("b2", RandomWeight({16}, 4)));
  y = b.Activation(y, ActivationKind::kRelu);
  b.MarkOutput(y);
  auto g = b.Build();
  BOLT_CHECK(g.ok());
  return std::move(g).value();
}

TEST(LayoutTransformPassTest, InsertsBoundaryTransforms) {
  PassStats stats;
  Graph g = LayoutTransformPass(BuildConvChain(), &stats);
  // Input transform + output transform (output is rank-4 NCHW).
  EXPECT_EQ(stats.layout_transforms_inserted, 2);
  int transforms = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kLayoutTransform) ++transforms;
    if (n.kind == OpKind::kConv2d) {
      EXPECT_EQ(n.out_desc.layout, Layout::kNHWC);
    }
  }
  EXPECT_EQ(transforms, 2);
  // Graph output is back in NCHW.
  EXPECT_EQ(g.node(g.output_ids()[0]).out_desc.layout, Layout::kNCHW);
}

TEST(LayoutTransformPassTest, PreservesSemantics) {
  Graph original = BuildConvChain();
  Graph nhwc = LayoutTransformPass(original);

  Tensor input(TensorDesc(DType::kFloat16, {1, 8, 10, 10}, Layout::kNCHW));
  Rng rng(9);
  rng.FillNormal(input.data(), 0.5f);
  input.Quantize();

  auto a = Interpreter(original).Run({{"data", input}});
  auto b = Interpreter(nhwc).Run({{"data", input}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()[0].MaxAbsDiff(b.value()[0]), 0.0f);
}

TEST(LayoutTransformPassTest, NhwcGraphPassesThrough) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 6, 6, 8});
  NodeId y = b.Activation(x, ActivationKind::kRelu);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  PassStats stats;
  Graph out = LayoutTransformPass(*g, &stats);
  EXPECT_EQ(stats.layout_transforms_inserted, 0);
  EXPECT_EQ(out.num_nodes(), g->num_nodes());
}

/// NCHW 1x1 conv on a 3x3 map -> Flatten -> Dense.  The model flattens
/// NCHW data, so the rewritten graph must flatten in NCHW order too.
Graph BuildConvFlattenDense() {
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
  y = b.Flatten(y);
  y = b.Dense(y, b.Constant("fc_w", weight({10, 72})), "fc");
  b.MarkOutput(y);
  return b.Build().value();
}

TEST(LayoutTransformPassTest, FlattenReadsTheModelsLayout) {
  const Graph g = BuildConvFlattenDense();
  PassStats stats;
  const Graph nhwc = LayoutTransformPass(g, &stats);
  // Into NHWC for the conv, and back to NCHW for the flatten.
  EXPECT_EQ(stats.layout_transforms_inserted, 2);
  const std::map<std::string, Tensor> in = {
      {"data", difftest::RandomTensor(g.node(g.input_ids()[0]).out_desc, 5)}};
  auto want = RefExecutor(g).Run(in);
  auto got = Interpreter(nhwc).Run(in);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(difftest::CheckDiff(
      "layout_flatten", (*got)[0], (*want)[0],
      difftest::ToleranceFor(
          cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto),
          DType::kFloat32)));
}

TEST(LayoutTransformPassTest, NchwcInputIsConvertedForTheConv) {
  GraphBuilder b(DType::kFloat16, Layout::kNCHWc);
  NodeId x = b.Input("x", {1, 8, 6, 6}, Layout::kNCHWc);
  NodeId y = b.Conv2d(x, b.Constant("w", RandomWeight({8, 1, 1, 8}, 7)),
                      Conv2dAttrs{}, "conv");
  b.MarkOutput(b.Activation(y, ActivationKind::kRelu));
  const Graph g = b.Build().value();
  PassStats stats;
  const Graph nhwc = LayoutTransformPass(g, &stats);
  EXPECT_EQ(stats.layout_transforms_inserted, 2);
  for (const Node& n : nhwc.nodes()) {
    if (n.kind == OpKind::kConv2d) {
      EXPECT_EQ(nhwc.node(n.inputs[0]).out_desc.layout, Layout::kNHWC);
    }
  }
  EXPECT_EQ(nhwc.node(nhwc.output_ids()[0]).out_desc.layout,
            Layout::kNCHWc);
}

TEST(LayoutTransformPassTest, InputsKeepTheirOwnDtype) {
  // The first node is an FP32 constant; the FP16 input after it must stay
  // FP16 when the rewrite re-issues it.
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  Tensor scale(TensorDesc(DType::kFloat32, {8}));
  b.Constant("scale", std::move(scale));
  NodeId x = b.Input("x", {1, 8, 6, 6}, Layout::kNCHW);
  NodeId y = b.Conv2d(x, b.Constant("w", RandomWeight({8, 1, 1, 8}, 9)),
                      Conv2dAttrs{}, "conv");
  b.MarkOutput(y);
  const Graph g = b.Build().value();
  ASSERT_EQ(g.nodes()[0].out_desc.dtype, DType::kFloat32);
  PassStats stats;
  const Graph nhwc = LayoutTransformPass(g, &stats);
  ASSERT_GT(stats.layout_transforms_inserted, 0);
  ASSERT_EQ(nhwc.input_ids().size(), 1u);
  const Node& in = nhwc.node(nhwc.input_ids()[0]);
  EXPECT_EQ(in.out_desc.dtype, DType::kFloat16);
  EXPECT_EQ(in.out_desc.layout, Layout::kNCHW);
}

TEST(EpilogueFusionPassTest, FoldsBiasAndActivation) {
  Graph g = LayoutTransformPass(BuildConvChain());
  PassStats stats;
  Graph fused = EpilogueFusionPass(g, true, &stats);
  EXPECT_EQ(stats.epilogues_fused, 4);  // 2x (bias + relu)
  int composites = 0;
  for (const Node& n : fused.nodes()) {
    EXPECT_NE(n.kind, OpKind::kBiasAdd);
    EXPECT_NE(n.kind, OpKind::kActivation);
    if (n.kind == OpKind::kBoltConv2d) {
      ++composites;
      EXPECT_EQ(n.attrs.GetInt("has_bias"), 1);
      EXPECT_EQ(n.attrs.GetStr("acts"), "relu");
      EXPECT_EQ(n.inputs.size(), 3u);  // x, w, bias
    }
  }
  EXPECT_EQ(composites, 2);
}

TEST(EpilogueFusionPassTest, DisabledStillCreatesComposites) {
  Graph g = LayoutTransformPass(BuildConvChain());
  PassStats stats;
  Graph fused = EpilogueFusionPass(g, false, &stats);
  EXPECT_EQ(stats.epilogues_fused, 0);
  int composites = 0, bias_ops = 0;
  for (const Node& n : fused.nodes()) {
    if (n.kind == OpKind::kBoltConv2d) ++composites;
    if (n.kind == OpKind::kBiasAdd) ++bias_ops;
  }
  EXPECT_EQ(composites, 2);
  EXPECT_EQ(bias_ops, 2);  // left for the host to fuse
}

TEST(EpilogueFusionPassTest, ResidualBlockPattern) {
  // conv -> bias -> add(skip) -> relu: the ResNet block tail.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 16});
  NodeId w = b.Constant("w", RandomWeight({16, 3, 3, 16}, 5));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w, a);
  y = b.BiasAdd(y, b.Constant("bias", RandomWeight({16}, 6)));
  y = b.Add(y, x);
  y = b.Activation(y, ActivationKind::kRelu);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  PassStats stats;
  Graph fused = EpilogueFusionPass(*g, true, &stats);
  EXPECT_EQ(stats.epilogues_fused, 3);
  bool found = false;
  for (const Node& n : fused.nodes()) {
    if (n.kind == OpKind::kBoltConv2d) {
      found = true;
      EXPECT_EQ(n.attrs.GetInt("has_residual"), 1);
      EXPECT_EQ(n.inputs.size(), 4u);  // x, w, bias, residual
    }
  }
  EXPECT_TRUE(found);
}

TEST(EpilogueFusionPassTest, StopsAtMultiConsumerBoundaries) {
  // conv output consumed twice: nothing after it may fold.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 16});
  NodeId w = b.Constant("w", RandomWeight({16, 3, 3, 16}, 7));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w, a);
  NodeId r1 = b.Activation(y, ActivationKind::kRelu);
  NodeId r2 = b.Activation(y, ActivationKind::kGelu);
  NodeId sum = b.Add(r1, r2);
  b.MarkOutput(sum);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  PassStats stats;
  Graph fused = EpilogueFusionPass(*g, true, &stats);
  EXPECT_EQ(stats.epilogues_fused, 0);
}

TEST(PersistentFusionPassTest, FusesConvPlusPointwise) {
  Graph g = EpilogueFusionPass(LayoutTransformPass(BuildConvChain()));
  Profiler prof(kT4);
  PassStats stats;
  Graph fused = PersistentKernelFusionPass(g, prof, &stats);
  EXPECT_EQ(stats.persistent_fused, 1);
  EXPECT_EQ(stats.persistent_stages, 2);
  bool found = false;
  for (const Node& n : fused.nodes()) {
    EXPECT_NE(n.kind, OpKind::kBoltConv2d);  // both were consumed
    if (n.kind == OpKind::kBoltB2BConv) {
      found = true;
      EXPECT_EQ(n.attrs.GetInt("stages"), 2);
      EXPECT_EQ(n.inputs.size(), 5u);  // x, w0, b0, w1, b1
      EXPECT_EQ(n.attrs.GetStr("s0_acts"), "relu");
    }
  }
  EXPECT_TRUE(found);
}

TEST(PersistentFusionPassTest, SkipsNonPointwiseSecondConv) {
  // Two 3x3 convs back to back: residence forbids fusion.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 10, 10, 8});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, b.Constant("w1", RandomWeight({16, 3, 3, 8}, 8)),
                      a);
  y = b.Conv2d(y, b.Constant("w2", RandomWeight({16, 3, 3, 16}, 9)), a);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Profiler prof(kT4);
  PassStats stats;
  Graph fused = PersistentKernelFusionPass(EpilogueFusionPass(*g), prof,
                                           &stats);
  EXPECT_EQ(stats.persistent_fused, 0);
}

TEST(PaddingPassTest, PadsUnalignedChannelsWhenProfitable) {
  // A large 5x5 conv with 46 input channels (Table 3 row 2 shape) —
  // padding is profitable there.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {32, 20, 26, 46});
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 2;
  NodeId y = b.Conv2d(
      x, b.Constant("w", RandomWeight({32, 5, 5, 46}, 10)), a);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  Profiler prof(kT4);
  PassStats stats;
  Graph padded = PaddingPass(EpilogueFusionPass(*g), prof, &stats);
  EXPECT_EQ(stats.tensors_padded, 1);

  bool found_pad = false;
  for (const Node& n : padded.nodes()) {
    if (n.kind == OpKind::kPadChannels) {
      found_pad = true;
      EXPECT_EQ(n.out_desc.shape[3], 48);
    }
    if (n.kind == OpKind::kBoltConv2d) {
      EXPECT_EQ(n.attrs.GetInt("padded_from_c"), 46);
      // The weight constant was padded too (and zero-filled).
      const Node& w = padded.node(n.inputs[1]);
      EXPECT_EQ(w.out_desc.shape[3], 48);
      ASSERT_TRUE(padded.is_constant(w.id));
      const Tensor& wt = padded.constant(w.id);
      // Padded tail is zero.
      EXPECT_EQ(wt.at(47), 0.0f);
    }
  }
  EXPECT_TRUE(found_pad);
}

TEST(PaddingPassTest, LeavesAlignedConvsAlone) {
  Graph g = EpilogueFusionPass(LayoutTransformPass(BuildConvChain()));
  Profiler prof(kT4);
  PassStats stats;
  PaddingPass(g, prof, &stats);
  EXPECT_EQ(stats.tensors_padded, 0);
}

TEST(EpilogueAttrsTest, RoundTrip) {
  cutlite::EpilogueSpec e;
  e.has_bias = true;
  e.has_residual = true;
  e.beta = 1.0f;
  e.activations = {ActivationKind::kHardswish, ActivationKind::kRelu};
  AttrMap attrs;
  EpilogueToAttrs(e, attrs, "s1_");
  cutlite::EpilogueSpec back = EpilogueFromAttrs(attrs, "s1_");
  EXPECT_EQ(back.has_bias, e.has_bias);
  EXPECT_EQ(back.has_residual, e.has_residual);
  EXPECT_EQ(back.activations, e.activations);
}

}  // namespace
}  // namespace bolt
