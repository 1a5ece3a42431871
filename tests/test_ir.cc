// Tests for the graph IR: builder shape inference, validation, reference
// interpreter numerics, layout transforms, and BYOC partitioning.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "ir/graph.h"
#include "ir/interpreter.h"
#include "ir/partition.h"

namespace bolt {
namespace {

Tensor RandomTensor(TensorDesc desc, uint64_t seed = 1) {
  Tensor t(std::move(desc));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.5f);
  t.Quantize();
  return t;
}

TEST(GraphBuilderTest, ConvShapeInferenceNHWC) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {2, 8, 8, 3});
  NodeId w = b.Constant(
      "w", Tensor(TensorDesc(DType::kFloat16, {16, 3, 3, 3})));
  Conv2dAttrs a;
  a.stride_h = a.stride_w = 2;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w, a);
  const TensorDesc& d = b.graph().node(y).out_desc;
  EXPECT_EQ(d.shape, (std::vector<int64_t>{2, 4, 4, 16}));
  EXPECT_EQ(d.layout, Layout::kNHWC);
}

TEST(GraphBuilderTest, ConvShapeInferenceNCHW) {
  GraphBuilder b(DType::kFloat16, Layout::kNCHW);
  NodeId x = b.Input("x", {1, 3, 9, 9});
  NodeId w = b.Constant(
      "w", Tensor(TensorDesc(DType::kFloat16, {8, 3, 3, 3})));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, w, a);
  EXPECT_EQ(b.graph().node(y).out_desc.shape,
            (std::vector<int64_t>{1, 8, 9, 9}));
}

TEST(GraphBuilderTest, DenseAndFlatten) {
  GraphBuilder b;
  NodeId x = b.Input("x", {4, 2, 2, 8});
  NodeId f = b.Flatten(x);
  EXPECT_EQ(b.graph().node(f).out_desc.shape,
            (std::vector<int64_t>{4, 32}));
  NodeId w = b.Constant(
      "w", Tensor(TensorDesc(DType::kFloat16, {10, 32})));
  NodeId y = b.Dense(f, w);
  EXPECT_EQ(b.graph().node(y).out_desc.shape,
            (std::vector<int64_t>{4, 10}));
}

TEST(GraphBuilderTest, BuildValidatesTopologicalOrder) {
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 4});
  b.MarkOutput(x);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->Validate().ok());
}

TEST(GraphTest, ConsumersAndCounts) {
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 4, 4, 8});
  NodeId r1 = b.Activation(x, ActivationKind::kRelu);
  NodeId r2 = b.Activation(x, ActivationKind::kGelu);
  b.MarkOutput(r1);
  b.MarkOutput(r2);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Consumers(x).size(), 2u);
  EXPECT_EQ(g->NumConsumers(x), 2);
  EXPECT_EQ(g->NumConsumers(r1), 0);
}

TEST(InterpreterTest, Conv2dMatchesHandComputed) {
  // 1x1 input "image", 1x1 kernel: conv == scalar product over channels.
  GraphBuilder b(DType::kFloat32, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 1, 1, 3});
  Tensor w(TensorDesc(DType::kFloat32, {2, 1, 1, 3}));
  w.data() = {1, 2, 3, /*oc1:*/ 0.5f, -1, 2};
  NodeId wc = b.Constant("w", std::move(w));
  NodeId y = b.Conv2d(x, wc, Conv2dAttrs{});
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Tensor input(TensorDesc(DType::kFloat32, {1, 1, 1, 3}, Layout::kNHWC));
  input.data() = {1, 10, 100};
  auto out = Interpreter(*g).Run({{"x", input}});
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out.value()[0].at(0), 1 + 20 + 300);
  EXPECT_FLOAT_EQ(out.value()[0].at(1), 0.5f - 10 + 200);
}

TEST(InterpreterTest, ConvPaddingAndStride) {
  // 3x3 all-ones kernel over a 3x3 all-ones image with pad 1 stride 2:
  // corners of the padded conv see 4 ones.
  GraphBuilder b(DType::kFloat32, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 3, 3, 1});
  Tensor w(TensorDesc(DType::kFloat32, {1, 3, 3, 1}));
  std::fill(w.data().begin(), w.data().end(), 1.0f);
  NodeId wc = b.Constant("w", std::move(w));
  Conv2dAttrs a;
  a.stride_h = a.stride_w = 2;
  a.pad_h = a.pad_w = 1;
  NodeId y = b.Conv2d(x, wc, a);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Tensor input(TensorDesc(DType::kFloat32, {1, 3, 3, 1}, Layout::kNHWC));
  std::fill(input.data().begin(), input.data().end(), 1.0f);
  auto out = Interpreter(*g).Run({{"x", input}});
  ASSERT_TRUE(out.ok());
  // Output 2x2: each output at stride-2 corners covers a 2x2 patch.
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out.value()[0].at(i), 4.0f);
}

TEST(InterpreterTest, BiasActivationResidual) {
  GraphBuilder b(DType::kFloat32, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 1, 1, 2});
  Tensor bias(TensorDesc(DType::kFloat32, {2}));
  bias.data() = {1.0f, -5.0f};
  NodeId bc = b.Constant("b", std::move(bias));
  NodeId y = b.BiasAdd(x, bc);
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Add(y, x);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Tensor input(TensorDesc(DType::kFloat32, {1, 1, 1, 2}, Layout::kNHWC));
  input.data() = {2.0f, 3.0f};
  auto out = Interpreter(*g).Run({{"x", input}});
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out.value()[0].at(0), 3.0f + 2.0f);   // relu(3)+2
  EXPECT_FLOAT_EQ(out.value()[0].at(1), 0.0f + 3.0f);   // relu(-2)+3
}

TEST(InterpreterTest, MaxPoolAndGap) {
  GraphBuilder b(DType::kFloat32, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 2, 2, 1});
  NodeId p = b.MaxPool2d(x, 2, 2);
  NodeId gap = b.GlobalAvgPool(x);
  b.MarkOutput(p);
  b.MarkOutput(gap);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Tensor input(TensorDesc(DType::kFloat32, {1, 2, 2, 1}, Layout::kNHWC));
  input.data() = {1, 2, 3, 4};
  auto out = Interpreter(*g).Run({{"x", input}});
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out.value()[0].at(0), 4.0f);
  EXPECT_FLOAT_EQ(out.value()[1].at(0), 2.5f);
}

TEST(InterpreterTest, SoftmaxRowsSumToOne) {
  GraphBuilder b(DType::kFloat32, Layout::kNHWC);
  NodeId x = b.Input("x", {3, 7}, Layout::kRowMajor);
  NodeId y = b.Softmax(x);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Tensor input = RandomTensor(TensorDesc(DType::kFloat32, {3, 7}), 5);
  auto out = Interpreter(*g).Run({{"x", input}});
  ASSERT_TRUE(out.ok());
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 7; ++c) sum += out.value()[0].at(r * 7 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(LayoutTransformTest, RoundTripIsIdentity) {
  Tensor t = RandomTensor(
      TensorDesc(DType::kFloat16, {2, 3, 4, 5}, Layout::kNCHW), 3);
  Tensor nhwc = refop::LayoutTransform(t, Layout::kNHWC);
  EXPECT_EQ(nhwc.shape(), (std::vector<int64_t>{2, 4, 5, 3}));
  Tensor back = refop::LayoutTransform(nhwc, Layout::kNCHW);
  EXPECT_EQ(back.MaxAbsDiff(t), 0.0f);
}

TEST(PadChannelsTest, PreservesDataAndZeroFills) {
  Tensor t = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 2, 2, 3}, Layout::kNHWC), 9);
  Tensor p = refop::PadChannels(t, 8);
  EXPECT_EQ(p.shape(), (std::vector<int64_t>{1, 2, 2, 8}));
  for (int64_t hw = 0; hw < 4; ++hw) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(p.at(hw * 8 + c), t.at(hw * 3 + c));
    }
    for (int64_t c = 3; c < 8; ++c) EXPECT_EQ(p.at(hw * 8 + c), 0.0f);
  }
}

TEST(InterpreterTest, RejectsCompositeOps) {
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 2, 2, 8});
  b.MarkOutput(x);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();
  Node composite;
  composite.kind = OpKind::kBoltGemm;
  composite.name = "fake";
  composite.inputs = {0};
  graph.AddNode(std::move(composite));
  Tensor input(TensorDesc(DType::kFloat16, {1, 2, 2, 8}, Layout::kNHWC));
  auto out = Interpreter(graph).Run({{"x", input}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
}

TEST(InterpreterTest, RejectsMisShapedInput) {
  // Fused epilogue pointers (here the residual) are planned from the
  // declared descs, so a larger tensor would be over-read.
  GraphBuilder b;
  NodeId x = b.Input("x", {8, 64});
  NodeId y = b.Dense(
      x, b.Constant("w", RandomTensor(TensorDesc(DType::kFloat16, {64, 64}))));
  y = b.Add(y, b.Constant("r", RandomTensor(
                                   TensorDesc(DType::kFloat16, {8, 64}), 2)));
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::map<std::string, Tensor> inputs{
      {"x", RandomTensor(TensorDesc(DType::kFloat16, {16, 64}), 3)}};
  for (const auto& out :
       {Interpreter(*g).Run(inputs), RefExecutor(*g).Run(inputs)}) {
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Contains(out.status().message(), "input tensor x "));
  }
}

TEST(PartitionTest, GroupsMaximalSupportedRegions) {
  GraphBuilder b;
  NodeId x = b.Input("x", {4, 8, 8, 16});
  NodeId w = b.Constant(
      "w", Tensor(TensorDesc(DType::kFloat16, {16, 3, 3, 16})));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId c1 = b.Conv2d(x, w, a);
  NodeId r1 = b.Activation(c1, ActivationKind::kRelu);
  NodeId p = b.MaxPool2d(r1, 2, 2);  // unsupported by Bolt backend
  NodeId w2 = b.Constant(
      "w2", Tensor(TensorDesc(DType::kFloat16, {16, 3, 3, 16})));
  NodeId c2 = b.Conv2d(p, w2, a);
  b.MarkOutput(c2);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  PartitionResult pr = PartitionGraph(*g, DefaultBoltSupport);
  // conv1+relu form one offloaded region, pool a host region, conv2 a
  // second offloaded region.
  EXPECT_EQ(pr.num_offloaded(), 2);
  EXPECT_EQ(pr.region_of[c1], pr.region_of[r1]);
  EXPECT_NE(pr.region_of[r1], pr.region_of[p]);
  EXPECT_NE(pr.region_of[p], pr.region_of[c2]);
}

TEST(PartitionTest, DiamondAcrossUnsupportedNodeDoesNotMergeRegions) {
  // Regression: diamond `supported -> unsupported -> supported` where the
  // final node also consumes the first directly.  Greedily merging y into
  // c1's region would make that region both a producer and a consumer of
  // the pool's host region — an inter-region cycle with no valid region
  // execution order.  The reachability guard must open a fresh region.
  //
  //      c1 (conv, supported)
  //      |  \ (feeds the pool)
  //      |   p (maxpool k=1 s=1, unsupported, shape-preserving)
  //      |  /
  //      y = add (supported)
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 8, 8, 16});
  NodeId w = b.Constant(
      "w", Tensor(TensorDesc(DType::kFloat16, {16, 3, 3, 16})));
  Conv2dAttrs a;
  a.pad_h = a.pad_w = 1;
  NodeId c1 = b.Conv2d(x, w, a);
  NodeId p = b.MaxPool2d(c1, 1, 1);
  NodeId y = b.Add(c1, p);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  PartitionResult pr = PartitionGraph(*g, DefaultBoltSupport);
  ASSERT_GE(pr.region_of[c1], 0);
  ASSERT_GE(pr.region_of[p], 0);
  ASSERT_GE(pr.region_of[y], 0);
  EXPECT_NE(pr.region_of[p], pr.region_of[c1]);
  // The buggy partitioner put y back into c1's region; it must not.
  EXPECT_NE(pr.region_of[y], pr.region_of[c1]);
  EXPECT_NE(pr.region_of[y], pr.region_of[p]);

  // The region graph must be acyclic: with regions emitted in topological
  // order of their first node, every inter-region edge must point from a
  // lower region id to a higher one.
  for (const Node& n : g->nodes()) {
    const int rn = pr.region_of[n.id];
    if (rn < 0) continue;
    for (NodeId in : n.inputs) {
      const int ri = pr.region_of[in];
      if (ri < 0 || ri == rn) continue;
      EXPECT_LT(ri, rn) << "region back-edge " << ri << " -> " << rn;
    }
  }
}

TEST(PartitionTest, InputsAndConstantsUnassigned) {
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 4});
  NodeId w = b.Constant("w", Tensor(TensorDesc(DType::kFloat16, {4, 4})));
  NodeId y = b.Dense(x, w);
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  PartitionResult pr = PartitionGraph(*g, DefaultBoltSupport);
  EXPECT_EQ(pr.region_of[x], -1);
  EXPECT_EQ(pr.region_of[w], -1);
  EXPECT_GE(pr.region_of[y], 0);
}

TEST(LayoutEquivalenceTest, ConvAgreesAcrossLayouts) {
  // Property: conv(NCHW x) == NHWC->conv->NCHW for random shapes.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = rng.Uniform(1, 2), c = rng.Uniform(1, 5);
    const int64_t hw = rng.Uniform(4, 9), oc = rng.Uniform(1, 6);
    const int64_t k = rng.UniformFloat() < 0.5 ? 1 : 3;
    Conv2dAttrs a;
    a.stride_h = a.stride_w = rng.UniformFloat() < 0.3 ? 2 : 1;
    a.pad_h = a.pad_w = k == 3 ? 1 : 0;

    Tensor x_nchw = RandomTensor(
        TensorDesc(DType::kFloat32, {n, c, hw, hw}, Layout::kNCHW),
        100 + trial);
    Tensor w = RandomTensor(TensorDesc(DType::kFloat32, {oc, k, k, c}),
                            200 + trial);

    Tensor direct = refop::Conv2d(x_nchw, w, a);
    Tensor via_nhwc = refop::LayoutTransform(
        refop::Conv2d(refop::LayoutTransform(x_nchw, Layout::kNHWC), w, a),
        Layout::kNCHW);
    EXPECT_LE(direct.MaxAbsDiff(via_nhwc), 1e-4f) << "trial " << trial;
  }
}

TEST(LayoutEquivalenceTest, PoolingAgreesAcrossLayouts) {
  Rng rng(88);
  Tensor x = RandomTensor(
      TensorDesc(DType::kFloat32, {2, 3, 8, 8}, Layout::kNCHW), 5);
  Tensor direct = refop::MaxPool2d(x, 2, 2);
  Tensor via = refop::LayoutTransform(
      refop::MaxPool2d(refop::LayoutTransform(x, Layout::kNHWC), 2, 2),
      Layout::kNCHW);
  EXPECT_EQ(direct.MaxAbsDiff(via), 0.0f);

  Tensor g1 = refop::GlobalAvgPool(x);
  Tensor g2 = refop::GlobalAvgPool(refop::LayoutTransform(x, Layout::kNHWC));
  // GAP output orders channels identically in both layouts (N,C,1,1 vs
  // N,1,1,C are the same flat data).
  EXPECT_LE(g1.MaxAbsDiff(g2), 1e-6f);
}

TEST(GraphTest, ToStringListsNodesAndOutputs) {
  GraphBuilder b;
  NodeId x = b.Input("x", {1, 4});
  NodeId w = b.Constant("w", Tensor(TensorDesc(DType::kFloat16, {4, 4})));
  NodeId y = b.Dense(x, w, "fc");
  b.MarkOutput(y);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::string text = g->ToString();
  EXPECT_TRUE(Contains(text, "dense"));
  EXPECT_TRUE(Contains(text, "# fc"));
  EXPECT_TRUE(Contains(text, "outputs: [2]"));
}

TEST(AttrMapTest, TypesAndDefaults) {
  AttrMap m;
  m.SetInt("i", 7);
  m.SetFloat("f", 2.5);
  m.SetStr("s", "hello");
  m.SetInts("v", {1, 2, 3});
  EXPECT_EQ(m.GetInt("i"), 7);
  EXPECT_EQ(m.GetInt("missing", -1), -1);
  EXPECT_DOUBLE_EQ(m.GetFloat("f"), 2.5);
  EXPECT_EQ(m.GetStr("s"), "hello");
  EXPECT_EQ(m.GetInts("v").size(), 3u);
  EXPECT_TRUE(m.Has("i"));
  EXPECT_FALSE(m.Has("x"));
}

}  // namespace
}  // namespace bolt
