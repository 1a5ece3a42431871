// Differential tests for the blocked CPU kernel backend: every fast-path
// result must match the naive reference loops bit-for-bit (the kernels
// accumulate in the same ascending-k order and quantize at the same op
// boundaries), for every shape, layout, epilogue, blocking, and thread
// count.  MaxAbsDiff is the comparator so the padding-tap signed-zero
// difference (blocked adds +-0.0 terms the reference loop skips) is not
// flagged.
//
// Bit identity is the scalar tier's contract, so every comparison against
// the reference pins its launch to CpuIsa::kScalar (a BlockConfig for the
// kernel calls, InterpreterOptions::block for the interpreter): the
// process default resolves to the host's best SIMD rung, which is only
// ULP-bounded (test_simd_kernels covers that tier).  The thread-count
// determinism checks compare a launch with itself and hold at any tier.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "cpukernels/backend.h"
#include "cpukernels/conv.h"
#include "cpukernels/gemm.h"
#include "ir/graph.h"
#include "ir/interpreter.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

Tensor RandomTensor(TensorDesc desc, uint64_t seed = 1) {
  return difftest::RandomTensor(std::move(desc), seed);
}

const std::vector<ActivationKind>& kAllActivations = difftest::kActivations;

// Default blocking pinned to the bit-exact scalar tier.
cpukernels::BlockConfig ScalarBlock() {
  cpukernels::BlockConfig cfg;
  cfg.isa = cpukernels::CpuIsa::kScalar;
  return cfg;
}

// ---------------------------------------------------------------------------
// Backend environment-variable parsing (strict from_chars discipline)
// ---------------------------------------------------------------------------

TEST(BackendEnvTest, ParseCpuThreadsRejectsMalformedValues) {
  using cpukernels::ParseCpuThreadsEnv;
  EXPECT_EQ(ParseCpuThreadsEnv("4"), 4);
  EXPECT_EQ(ParseCpuThreadsEnv("1"), 1);
  EXPECT_EQ(ParseCpuThreadsEnv("4096"), 4096);
  // atoi used to accept "4abc" as 4 and had UB on overflow.
  EXPECT_EQ(ParseCpuThreadsEnv("4abc"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("abc"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv(""), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv(" 4"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("4 "), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("4.5"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("0"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("-3"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("4097"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv("99999999999999999999"), std::nullopt);
  EXPECT_EQ(ParseCpuThreadsEnv(nullptr), std::nullopt);
}

TEST(BackendEnvTest, ParseCpuBackendRecognizedValuesOnly) {
  using cpukernels::Backend;
  using cpukernels::ParseCpuBackendEnv;
  EXPECT_EQ(ParseCpuBackendEnv("ref"), Backend::kReference);
  EXPECT_EQ(ParseCpuBackendEnv("reference"), Backend::kReference);
  EXPECT_EQ(ParseCpuBackendEnv("naive"), Backend::kReference);
  EXPECT_EQ(ParseCpuBackendEnv(""), Backend::kFastCpu);
  EXPECT_EQ(ParseCpuBackendEnv("fast"), Backend::kFastCpu);
  EXPECT_EQ(ParseCpuBackendEnv("cpukernels"), Backend::kFastCpu);
  // Unrecognized values are rejected (the caller falls back to fast, but
  // the parse itself must not silently guess).
  EXPECT_EQ(ParseCpuBackendEnv("REF"), std::nullopt);
  EXPECT_EQ(ParseCpuBackendEnv("ref "), std::nullopt);
  EXPECT_EQ(ParseCpuBackendEnv("refx"), std::nullopt);
  EXPECT_EQ(ParseCpuBackendEnv(nullptr), std::nullopt);
}

// ---------------------------------------------------------------------------
// GEMM vs refop::Dense
// ---------------------------------------------------------------------------

TEST(CpuGemmTest, MatchesReferenceAcrossShapes) {
  // Odd sizes straddle every micro-tile and cache-block boundary
  // (kMR=4, kNR=8, and the default mc/kc blocking).
  const int64_t sizes[] = {1, 3, 7, 8, 17, 65};
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : {int64_t{1}, int64_t{9}, int64_t{260}}) {
        for (DType dt : {DType::kFloat16, DType::kFloat32}) {
          Tensor a = RandomTensor(TensorDesc(dt, {m, k}), 10 * m + n);
          Tensor w = RandomTensor(TensorDesc(dt, {n, k}), 20 * n + k);
          cpukernels::Epilogue epi;
          epi.output_dtype = dt;
          epi.boundary_quantize = true;
          Tensor got = cpukernels::Gemm(a, w, epi, ScalarBlock());
          Tensor want = refop::Dense(a, w);
          EXPECT_EQ(got.MaxAbsDiff(want), 0.0f)
              << "m=" << m << " n=" << n << " k=" << k << " "
              << DTypeName(dt);
        }
      }
    }
  }
}

TEST(CpuGemmTest, TinyBlockingExercisesAllEdges) {
  // A deliberately tiny block config forces multiple jc/pc/ic iterations
  // and partial tiles in every dimension.
  cpukernels::BlockConfig cfg = ScalarBlock();
  cfg.mc = 8;
  cfg.kc = 8;
  cfg.nc = 16;
  Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {37, 53}), 3);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {29, 53}), 4);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat16;
  epi.boundary_quantize = true;
  Tensor got = cpukernels::Gemm(a, w, epi, cfg);
  EXPECT_EQ(got.MaxAbsDiff(refop::Dense(a, w)), 0.0f);
}

TEST(CpuGemmTest, FusedEpilogueMatchesUnfusedChain) {
  Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {33, 70}), 5);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {21, 70}), 6);
  Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {21}), 7);
  for (ActivationKind act : kAllActivations) {
    cpukernels::Epilogue epi;
    epi.output_dtype = DType::kFloat16;
    epi.boundary_quantize = true;
    epi.bias = bias.data().data();
    epi.acts = {act};
    Tensor got = cpukernels::Gemm(a, w, epi, ScalarBlock());
    Tensor want =
        refop::Activation(refop::BiasAdd(refop::Dense(a, w), bias), act);
    EXPECT_EQ(got.MaxAbsDiff(want), 0.0f) << ActivationName(act);
  }
}

TEST(CpuGemmTest, ResidualEpilogueMatchesUnfusedChain) {
  Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {19, 40}), 8);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {26, 40}), 9);
  Tensor res = RandomTensor(TensorDesc(DType::kFloat16, {19, 26}), 10);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat16;
  epi.boundary_quantize = true;
  epi.acts = {ActivationKind::kRelu};
  epi.residual = res.data().data();
  Tensor got = cpukernels::Gemm(a, w, epi, ScalarBlock());
  Tensor want = refop::Add(
      refop::Activation(refop::Dense(a, w), ActivationKind::kRelu), res);
  EXPECT_EQ(got.MaxAbsDiff(want), 0.0f);
}

TEST(CpuGemmTest, CutliteModeQuantizesOnce) {
  // cutlite-mode epilogue: Act(alpha*acc + beta*src + bias), one final
  // quantize — not per-stage.  Verify against a hand-rolled loop.
  const int64_t m = 11, n = 13, k = 31;
  Tensor a = RandomTensor(TensorDesc(DType::kFloat32, {m, k}), 11);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat32, {n, k}), 12);
  Tensor bias = RandomTensor(TensorDesc(DType::kFloat32, {n}), 13);
  Tensor res = RandomTensor(TensorDesc(DType::kFloat32, {m, n}), 14);
  cpukernels::Epilogue epi;
  epi.alpha = 1.25f;
  epi.beta = -0.5f;
  epi.bias = bias.data().data();
  epi.residual = res.data().data();
  epi.acts = {ActivationKind::kRelu};
  epi.output_dtype = DType::kFloat16;
  Tensor got = cpukernels::Gemm(a, w, epi, ScalarBlock());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i * k + kk) * w.at(j * k + kk);
      }
      float v = 1.25f * acc - 0.5f * res.at(i * n + j) + bias.at(j);
      v = half_t::Quantize(std::max(v, 0.0f));
      EXPECT_EQ(got.at(i * n + j), v) << i << "," << j;
    }
  }
}

TEST(CpuGemmTest, BitwiseDeterministicAcrossThreadCounts) {
  Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {130, 300}), 15);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {67, 300}), 16);
  Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {67}), 17);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat16;
  epi.boundary_quantize = true;
  epi.bias = bias.data().data();
  epi.acts = {ActivationKind::kGelu};
  Tensor serial = cpukernels::Gemm(a, w, epi);
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    Tensor parallel = cpukernels::Gemm(a, w, epi, {}, &pool);
    // Identical accumulation order -> identical bits, zero signs included.
    ASSERT_EQ(serial.data().size(), parallel.data().size());
    EXPECT_EQ(std::memcmp(serial.data().data(), parallel.data().data(),
                          serial.data().size() * sizeof(float)),
              0)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Conv2d vs refop::Conv2d
// ---------------------------------------------------------------------------

Conv2dAttrs Attrs(int64_t stride, int64_t pad, int64_t dilation = 1) {
  Conv2dAttrs a;
  a.stride_h = a.stride_w = stride;
  a.pad_h = a.pad_w = pad;
  a.dilation_h = a.dilation_w = dilation;
  return a;
}

cpukernels::ConvParams Params(const Conv2dAttrs& a) {
  cpukernels::ConvParams p;
  p.stride_h = a.stride_h;
  p.stride_w = a.stride_w;
  p.pad_h = a.pad_h;
  p.pad_w = a.pad_w;
  p.dilation_h = a.dilation_h;
  p.dilation_w = a.dilation_w;
  return p;
}

void ExpectConvMatchesReference(const Tensor& x, const Tensor& w,
                                const Conv2dAttrs& a,
                                const std::string& what) {
  cpukernels::Epilogue epi;
  epi.output_dtype = x.dtype();
  epi.boundary_quantize = true;
  Tensor got = cpukernels::Conv2d(x, w, Params(a), epi, ScalarBlock());
  Tensor want = refop::Conv2d(x, w, a);
  EXPECT_EQ(got.desc(), want.desc()) << what;
  EXPECT_EQ(got.MaxAbsDiff(want), 0.0f) << what;
}

TEST(CpuConvTest, MatchesReferenceAcrossGeometries) {
  struct Case {
    int64_t h, c, oc, kernel, stride, pad, dilation;
  };
  const Case cases[] = {
      {9, 3, 5, 3, 1, 1, 1},   // odd channels, same-pad 3x3
      {8, 4, 8, 1, 1, 0, 1},   // pointwise
      {11, 6, 7, 3, 2, 1, 1},  // strided, odd spatial
      {9, 5, 6, 5, 1, 2, 1},   // 5x5
      {13, 4, 4, 3, 1, 2, 2},  // dilated
      {7, 3, 9, 3, 2, 0, 1},   // strided valid-pad
      {7, 8, 16, 3, 1, 1, 1},  // block-aligned channels (NCHWc-eligible)
      {6, 16, 8, 1, 1, 0, 1},  // two channel blocks, pointwise
  };
  for (const Case& c : cases) {
    for (Layout layout :
         {Layout::kNHWC, Layout::kNCHW, Layout::kNCHWc}) {
      // NCHWc requires block-aligned channels; skip ineligible cases.
      if (layout == Layout::kNCHWc &&
          (c.c % kNCHWcBlock != 0 || c.oc % kNCHWcBlock != 0)) {
        continue;
      }
      const std::string what =
          StrCat("h=", c.h, " c=", c.c, " oc=", c.oc, " k=", c.kernel,
                 " s=", c.stride, " p=", c.pad, " d=", c.dilation, " ",
                 LayoutName(layout));
      std::vector<int64_t> xs =
          layout == Layout::kNHWC
              ? std::vector<int64_t>{2, c.h, c.h, c.c}
              : std::vector<int64_t>{2, c.c, c.h, c.h};
      Tensor x = RandomTensor(TensorDesc(DType::kFloat16, xs, layout),
                              c.h * 100 + c.c);
      Tensor w = RandomTensor(
          TensorDesc(DType::kFloat16, {c.oc, c.kernel, c.kernel, c.c}),
          c.oc * 100 + c.kernel);
      ExpectConvMatchesReference(x, w, Attrs(c.stride, c.pad, c.dilation),
                                 what);
    }
  }
}

TEST(CpuConvTest, FusedEpilogueMatchesUnfusedChain) {
  Tensor x = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 9, 9, 6}, Layout::kNHWC), 18);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {10, 3, 3, 6}), 19);
  Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {10}), 20);
  const Conv2dAttrs a = Attrs(1, 1);
  for (ActivationKind act : kAllActivations) {
    cpukernels::Epilogue epi;
    epi.output_dtype = DType::kFloat16;
    epi.boundary_quantize = true;
    epi.bias = bias.data().data();
    epi.acts = {act};
    Tensor got = cpukernels::Conv2d(x, w, Params(a), epi, ScalarBlock());
    Tensor want = refop::Activation(
        refop::BiasAdd(refop::Conv2d(x, w, a), bias), act);
    EXPECT_EQ(got.MaxAbsDiff(want), 0.0f) << ActivationName(act);
  }
}

TEST(CpuConvTest, BitwiseDeterministicAcrossThreadCounts) {
  Tensor x = RandomTensor(
      TensorDesc(DType::kFloat16, {2, 14, 14, 24}, Layout::kNHWC), 21);
  Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {32, 3, 3, 24}), 22);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat16;
  epi.boundary_quantize = true;
  Tensor serial = cpukernels::Conv2d(x, w, Params(Attrs(1, 1)), epi);
  for (int threads : {2, 5}) {
    ThreadPool pool(threads);
    Tensor parallel =
        cpukernels::Conv2d(x, w, Params(Attrs(1, 1)), epi, {}, &pool);
    EXPECT_EQ(std::memcmp(serial.data().data(), parallel.data().data(),
                          serial.data().size() * sizeof(float)),
              0)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Small-M launches: fewer row panels than pool participants split over N
// ---------------------------------------------------------------------------

// One pool per size 1-5, shared by the cases below (2-6 participants).
const std::vector<std::unique_ptr<ThreadPool>>& Pools() {
  static const std::vector<std::unique_ptr<ThreadPool>> pools = [] {
    std::vector<std::unique_ptr<ThreadPool>> p;
    for (int threads = 1; threads <= 5; ++threads) {
      p.push_back(std::make_unique<ThreadPool>(threads));
    }
    return p;
  }();
  return pools;
}

// Runs `launch` serially and on every pool: each result must be
// bit-identical to the serial one, which must match the reference oracle
// (up to the sign of zero, see the file comment).
void ExpectSameOnEveryPool(const std::function<Tensor(ThreadPool*)>& launch,
                           const Tensor& want, const std::string& what) {
  const Tensor serial = launch(nullptr);
  ASSERT_EQ(serial.desc(), want.desc()) << what;
  EXPECT_EQ(serial.MaxAbsDiff(want), 0.0f) << what;
  for (const auto& pool : Pools()) {
    const Tensor got = launch(pool.get());
    ASSERT_EQ(got.data().size(), serial.data().size()) << what;
    EXPECT_EQ(std::memcmp(got.data().data(), serial.data().data(),
                          serial.data().size() * sizeof(float)),
              0)
        << what << " on " << pool->num_threads() << " threads";
  }
}

// Scalar-pinned small blocks: several jc panels and pc slices, and row
// panel counts on both sides of the participant count.
std::vector<cpukernels::BlockConfig> SmallBlocks() {
  using cpukernels::BlockConfig;
  const auto scalar = [](int mc, int kc, int nc) {
    return BlockConfig::Make(mc, kc, nc, cpukernels::ParallelScheme::kLoopLevel,
                             cpukernels::CpuIsa::kScalar)
        .value();
  };
  return {scalar(16, 64, 64), scalar(4, 8, 24)};
}

TEST(CpuSmallMSplitTest, GemmBitIdenticalOnEveryPoolAndToReference) {
  for (const cpukernels::BlockConfig& block : SmallBlocks()) {
    for (int64_t m : {1, 3, 4, 16, 49}) {
      for (int64_t n : {8, 72, 520}) {
        for (int64_t k : {8, 300}) {
          const std::string what =
              StrCat("m=", m, " n=", n, " k=", k, " mc=", block.mc,
                     " kc=", block.kc, " nc=", block.nc);
          Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {m, k}),
                                  m * 1000 + k);
          Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {n, k}),
                                  n * 1000 + k);
          Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {n}), n);
          GraphBuilder b(DType::kFloat16, Layout::kRowMajor);
          NodeId y = b.Dense(b.Input("a", {m, k}), b.Constant("w", w));
          y = b.BiasAdd(y, b.Constant("bias", bias));
          b.MarkOutput(b.Activation(y, ActivationKind::kRelu));
          auto g = b.Build();
          ASSERT_TRUE(g.ok());
          auto want = RefExecutor(*g).Run({{"a", a}});
          ASSERT_TRUE(want.ok());

          cpukernels::Epilogue epi;
          epi.output_dtype = DType::kFloat16;
          epi.boundary_quantize = true;
          epi.bias = bias.data().data();
          epi.acts = {ActivationKind::kRelu};
          ExpectSameOnEveryPool(
              [&](ThreadPool* pool) {
                return cpukernels::Gemm(a, w, epi, block, pool);
              },
              (*want)[0], what);
        }
      }
    }
  }
}

TEST(CpuSmallMSplitTest, ConvBitIdenticalOnEveryPoolAndToReference) {
  struct Case {
    int64_t h, stride;  // 3x3 pad-1 filter: 4x4, 2x2 and 1x1 outputs
  };
  const int64_t c = 12, oc = 40;
  for (const cpukernels::BlockConfig& block : SmallBlocks()) {
    for (const Case& cs : {Case{4, 1}, Case{4, 2}, Case{2, 2}}) {
      for (Layout layout : {Layout::kNHWC, Layout::kNCHW}) {
        const std::string what =
            StrCat("h=", cs.h, " stride=", cs.stride, " ",
                   LayoutName(layout), " mc=", block.mc, " kc=", block.kc,
                   " nc=", block.nc);
        const std::vector<int64_t> xs =
            layout == Layout::kNHWC ? std::vector<int64_t>{1, cs.h, cs.h, c}
                                    : std::vector<int64_t>{1, c, cs.h, cs.h};
        Tensor x = RandomTensor(TensorDesc(DType::kFloat16, xs, layout),
                                cs.h * 10 + cs.stride);
        Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {oc, 3, 3, c}), 7);
        Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {oc}), 8);
        const Conv2dAttrs attrs = Attrs(cs.stride, 1);
        GraphBuilder b(DType::kFloat16, layout);
        NodeId y =
            b.Conv2d(b.Input("x", xs, layout), b.Constant("w", w), attrs);
        y = b.BiasAdd(y, b.Constant("bias", bias));
        b.MarkOutput(b.Activation(y, ActivationKind::kRelu));
        auto g = b.Build();
        ASSERT_TRUE(g.ok());
        auto want = RefExecutor(*g).Run({{"x", x}});
        ASSERT_TRUE(want.ok());

        cpukernels::Epilogue epi;
        epi.output_dtype = DType::kFloat16;
        epi.boundary_quantize = true;
        epi.bias = bias.data().data();
        epi.acts = {ActivationKind::kRelu};
        ExpectSameOnEveryPool(
            [&](ThreadPool* pool) {
              return cpukernels::Conv2d(x, w, Params(attrs), epi, block,
                                        pool);
            },
            (*want)[0], what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Interpreter differential: fast backend vs RefExecutor
// ---------------------------------------------------------------------------

void ExpectAllModesMatchReference(const Graph& g,
                                  const std::map<std::string, Tensor>& in) {
  RefExecutor oracle(g);
  auto want = oracle.Run(in);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (bool fuse : {false, true}) {
    for (bool parallel : {false, true}) {
      InterpreterOptions o;
      o.backend = cpukernels::Backend::kFastCpu;
      o.fuse_epilogues = fuse;
      o.parallel = parallel;
      o.block = ScalarBlock();
      Interpreter interp(g, o);
      auto got = interp.Run(in);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value().size(), want.value().size());
      for (size_t i = 0; i < want.value().size(); ++i) {
        EXPECT_EQ(got.value()[i].MaxAbsDiff(want.value()[i]), 0.0f)
            << "output " << i << " fuse=" << fuse
            << " parallel=" << parallel;
      }
    }
  }
}

TEST(InterpreterDifferentialTest, ConvBiasActChain) {
  for (Layout layout : {Layout::kNHWC, Layout::kNCHW}) {
    GraphBuilder b(DType::kFloat16, layout);
    std::vector<int64_t> xs = layout == Layout::kNHWC
                                  ? std::vector<int64_t>{1, 10, 10, 5}
                                  : std::vector<int64_t>{1, 5, 10, 10};
    NodeId x = b.Input("x", xs);
    NodeId w = b.Constant(
        "w", RandomTensor(TensorDesc(DType::kFloat16, {7, 3, 3, 5}), 23));
    NodeId bias =
        b.Constant("b", RandomTensor(TensorDesc(DType::kFloat16, {7}), 24));
    NodeId y = b.Activation(b.BiasAdd(b.Conv2d(x, w, Attrs(1, 1)), bias),
                            ActivationKind::kGelu);
    b.MarkOutput(y);
    std::map<std::string, Tensor> in;
    in["x"] = RandomTensor(TensorDesc(DType::kFloat16, xs, layout), 25);
    ExpectAllModesMatchReference(b.Build().value(), in);
  }
}

TEST(InterpreterDifferentialTest, ResidualDiamond) {
  // Two conv branches from one source meeting at a single Add: only one
  // chain may fold the Add; the other must stop before it.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 8, 8, 6});
  NodeId w1 = b.Constant(
      "w1", RandomTensor(TensorDesc(DType::kFloat16, {6, 3, 3, 6}), 26));
  NodeId w2 = b.Constant(
      "w2", RandomTensor(TensorDesc(DType::kFloat16, {6, 3, 3, 6}), 27));
  NodeId left = b.Activation(b.Conv2d(x, w1, Attrs(1, 1)),
                             ActivationKind::kRelu);
  NodeId right = b.Conv2d(x, w2, Attrs(1, 1));
  NodeId y = b.Activation(b.Add(left, right), ActivationKind::kRelu);
  b.MarkOutput(y);
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 8, 8, 6}, Layout::kNHWC), 28);
  ExpectAllModesMatchReference(b.Build().value(), in);
}

TEST(InterpreterDifferentialTest, IdentityResidualBlock) {
  // ResNet basic block: the residual is the block input, which also feeds
  // the first conv — exercises the uses_-count guard on buffer stealing.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 7, 7, 8});
  NodeId w1 = b.Constant(
      "w1", RandomTensor(TensorDesc(DType::kFloat16, {8, 3, 3, 8}), 29));
  NodeId w2 = b.Constant(
      "w2", RandomTensor(TensorDesc(DType::kFloat16, {8, 3, 3, 8}), 30));
  NodeId c1 = b.Activation(b.Conv2d(x, w1, Attrs(1, 1)),
                           ActivationKind::kRelu);
  NodeId c2 = b.Conv2d(c1, w2, Attrs(1, 1));
  NodeId y = b.Activation(b.Add(c2, x), ActivationKind::kRelu);
  b.MarkOutput(y);
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 7, 7, 8}, Layout::kNHWC), 31);
  ExpectAllModesMatchReference(b.Build().value(), in);
}

TEST(InterpreterDifferentialTest, AddOfSameNode) {
  // Add(x, x): both operands alias one node, so in-place buffer stealing
  // must fall back to a copy (uses_ counts edges, not distinct nodes).
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 4, 4, 3});
  NodeId r = b.Activation(x, ActivationKind::kRelu);
  NodeId y = b.Add(r, r);
  b.MarkOutput(y);
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 4, 4, 3}, Layout::kNHWC), 32);
  ExpectAllModesMatchReference(b.Build().value(), in);
}

TEST(InterpreterDifferentialTest, IntermediateIsGraphOutput) {
  // The conv result is both a graph output and the head of an epilogue
  // chain — fusion must not swallow it.
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 6, 6, 4});
  NodeId w = b.Constant(
      "w", RandomTensor(TensorDesc(DType::kFloat16, {5, 3, 3, 4}), 33));
  NodeId c = b.Conv2d(x, w, Attrs(1, 1));
  NodeId y = b.Activation(c, ActivationKind::kSigmoid);
  b.MarkOutput(c);
  b.MarkOutput(y);
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 6, 6, 4}, Layout::kNHWC), 34);
  ExpectAllModesMatchReference(b.Build().value(), in);
}

TEST(InterpreterDifferentialTest, DenseChainWithElementwiseTail) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {5, 24});
  NodeId w1 = b.Constant(
      "w1", RandomTensor(TensorDesc(DType::kFloat16, {16, 24}), 35));
  NodeId b1 =
      b.Constant("b1", RandomTensor(TensorDesc(DType::kFloat16, {16}), 36));
  NodeId w2 = b.Constant(
      "w2", RandomTensor(TensorDesc(DType::kFloat16, {16, 16}), 37));
  NodeId d1 = b.Activation(b.BiasAdd(b.Dense(x, w1), b1),
                           ActivationKind::kRelu);
  NodeId d2 = b.Dense(d1, w2);
  NodeId y = b.Activation(b.Add(d2, d1), ActivationKind::kSoftplus);
  b.MarkOutput(y);
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(TensorDesc(DType::kFloat16, {5, 24}), 38);
  ExpectAllModesMatchReference(b.Build().value(), in);
}

TEST(InterpreterDifferentialTest, DeterministicAcrossThreadCounts) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 12, 12, 16});
  NodeId w = b.Constant(
      "w", RandomTensor(TensorDesc(DType::kFloat16, {24, 3, 3, 16}), 39));
  NodeId bias = b.Constant(
      "b", RandomTensor(TensorDesc(DType::kFloat16, {24}), 40));
  NodeId y = b.Activation(b.BiasAdd(b.Conv2d(x, w, Attrs(1, 1)), bias),
                          ActivationKind::kRelu);
  b.MarkOutput(y);
  Graph g = b.Build().value();
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 12, 12, 16}, Layout::kNHWC), 41);

  InterpreterOptions serial;
  serial.backend = cpukernels::Backend::kFastCpu;
  serial.parallel = false;
  Tensor base = Interpreter(g, serial).Run(in).value()[0];
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    InterpreterOptions o;
    o.backend = cpukernels::Backend::kFastCpu;
    o.pool = &pool;
    Tensor got = Interpreter(g, o).Run(in).value()[0];
    EXPECT_EQ(std::memcmp(base.data().data(), got.data().data(),
                          base.data().size() * sizeof(float)),
              0)
        << threads << " threads";
  }
}

TEST(InterpreterDifferentialTest, RandomizedGraphSweep) {
  // Randomized conv/dense chains with varying geometry; every graph is
  // checked in all four backend modes against the oracle.
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t h = rng.Uniform(5, 12);
    // Half the trials use block-aligned channels so the always-drawn
    // layout axis can land on blocked NCHWc.
    const bool aligned = trial % 2 == 0;
    const int64_t c =
        aligned ? kNCHWcBlock * rng.Uniform(1, 2) : rng.Uniform(1, 9);
    const int64_t oc =
        aligned ? kNCHWcBlock * rng.Uniform(1, 2) : rng.Uniform(1, 11);
    const Layout layout = difftest::RandomConvLayout(rng, c, oc);
    const int64_t kernel = 1 + 2 * rng.Uniform(0, 1);
    const int64_t stride = rng.Uniform(1, 2);
    const int64_t pad = rng.Uniform(0, kernel - 1);
    GraphBuilder b(DType::kFloat16, layout);
    std::vector<int64_t> xs = layout == Layout::kNHWC
                                  ? std::vector<int64_t>{1, h, h, c}
                                  : std::vector<int64_t>{1, c, h, h};
    NodeId x = b.Input("x", xs);
    NodeId w = b.Constant(
        "w", RandomTensor(
                 TensorDesc(DType::kFloat16, {oc, kernel, kernel, c}),
                 500 + trial));
    NodeId y = b.Conv2d(x, w, Attrs(stride, pad));
    if (trial % 3 == 0) {
      NodeId bias = b.Constant(
          "b", RandomTensor(TensorDesc(DType::kFloat16, {oc}),
                            600 + trial));
      y = b.BiasAdd(y, bias);
    }
    y = b.Activation(y, kAllActivations[trial % kAllActivations.size()]);
    b.MarkOutput(y);
    std::map<std::string, Tensor> in;
    in["x"] =
        RandomTensor(TensorDesc(DType::kFloat16, xs, layout), 700 + trial);
    SCOPED_TRACE(StrCat("trial=", trial, " h=", h, " c=", c, " oc=", oc,
                        " k=", kernel, " s=", stride, " p=", pad, " ",
                        LayoutName(layout)));
    ExpectAllModesMatchReference(b.Build().value(), in);
  }
}

}  // namespace
}  // namespace bolt
