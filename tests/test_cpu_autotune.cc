// Property-based differential tests for the CPU autotuning stack:
//
//  * BlockConfig validation (Make / Validate)
//  * candidate enumeration: every profiler-emitted candidate is valid
//  * ~200 randomized (shape, layout, epilogue, BlockConfig, thread-count)
//    tuples — including degenerate blocks (mc < kMR, nc not a multiple of
//    kNR, non-positive everything) — asserting the fast backend stays
//    within its resolved tier of the reference oracle (bit-identical at
//    scalar, ULP-bounded at a SIMD rung) under ANY blocking and either
//    parallelization scheme
//  * the tuned-block registry: backend gating (the reference oracle must
//    never see tuned state), interpreter integration
//  * Profiler::ProfileCpuGemm / ProfileCpuConv: real measurement, cache
//    hits with zero re-measurement, persistence round-trip
//  * Engine::Compile(tune_cpu_kernels): tuned selection end to end, and
//    the BOLT_CPU_BACKEND=ref regression (tuning must be a no-op).

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>

#include "bolt/engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "cpukernels/backend.h"
#include "cpukernels/config.h"
#include "cpukernels/conv.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/gemm.h"
#include "cpukernels/tuned.h"
#include "ir/graph.h"
#include "ir/interpreter.h"
#include "profiler/cpu_tune.h"
#include "profiler/profiler.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

using cpukernels::BlockConfig;
using cpukernels::CpuCacheInfo;
using cpukernels::ParallelScheme;
using cpukernels::TunedKind;
using cpukernels::kMR;
using cpukernels::kNR;
using difftest::RandomTensor;

// ---------------------------------------------------------------------------
// BlockConfig validation: Make rejects invalid blocks.
// ---------------------------------------------------------------------------

TEST(BlockConfigTest, MakeRejectsInvalidConfigs) {
  EXPECT_FALSE(BlockConfig::Make(0, 256, 4096).ok());     // mc == 0
  EXPECT_FALSE(BlockConfig::Make(-4, 256, 4096).ok());    // mc < 0
  EXPECT_FALSE(BlockConfig::Make(3, 256, 4096).ok());     // mc < kMR
  EXPECT_FALSE(BlockConfig::Make(6, 256, 4096).ok());     // mc % kMR != 0
  EXPECT_FALSE(BlockConfig::Make(64, 256, 0).ok());       // nc == 0
  EXPECT_FALSE(BlockConfig::Make(64, 256, 12).ok());      // nc % kNR != 0
  EXPECT_FALSE(BlockConfig::Make(64, 256, -8).ok());      // nc < 0
  EXPECT_FALSE(BlockConfig::Make(64, 7, 4096).ok());      // kc < 8
  EXPECT_FALSE(BlockConfig::Make(64, 0, 4096).ok());      // kc == 0
  EXPECT_FALSE(
      BlockConfig::Make(64, 256, 4096, static_cast<ParallelScheme>(7)).ok());

  auto ok = BlockConfig::Make(kMR, 8, kNR, ParallelScheme::kBatchLevel);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().Validate().ok());
  EXPECT_EQ(ok.value().scheme, ParallelScheme::kBatchLevel);
}

// ---------------------------------------------------------------------------
// Candidate enumeration: every emitted candidate is architecture-plausible
// AND valid; the heuristic leads; enumeration is deterministic and deduped.
// ---------------------------------------------------------------------------

TEST(CandidateEnumerationTest, EveryCandidateValidatesAcrossMachines) {
  // Real host plus synthetic cache hierarchies, including degenerate tiny
  // ones that force every cap to clamp.
  std::vector<CpuCacheInfo> machines = {cpukernels::HostCacheInfo()};
  CpuCacheInfo tiny;
  tiny.l1_bytes = 1024;
  tiny.l2_bytes = 2048;
  tiny.l3_bytes = 4096;
  machines.push_back(tiny);
  CpuCacheInfo huge;
  huge.l1_bytes = 512 * 1024;
  huge.l2_bytes = 16 * 1024 * 1024;
  huge.l3_bytes = 256 * 1024 * 1024;
  machines.push_back(huge);

  Rng rng(42);
  for (const CpuCacheInfo& cache : machines) {
    for (int trial = 0; trial < 24; ++trial) {
      const int64_t m = rng.Uniform(1, 600);
      const int64_t n = rng.Uniform(1, 600);
      const int64_t k = rng.Uniform(1, 1200);
      for (int threads : {1, 4}) {
        const auto cands = EnumerateCpuBlockCandidates(cache, m, n, k,
                                                       threads);
        ASSERT_FALSE(cands.empty());
        // The fixed heuristic is always candidate #0, so measured
        // selection can never lose to it beyond noise.
        EXPECT_TRUE(cands[0] == BlockConfig{});
        std::set<std::tuple<int, int, int, int, int, bool>> seen;
        for (const BlockConfig& c : cands) {
          EXPECT_TRUE(c.Validate().ok())
              << "m=" << m << " n=" << n << " k=" << k << " mc=" << c.mc
              << " kc=" << c.kc << " nc=" << c.nc;
          EXPECT_TRUE(seen.emplace(c.mc, c.kc, c.nc,
                                   static_cast<int>(c.scheme),
                                   static_cast<int>(c.isa), c.prefetch)
                          .second)
              << "duplicate candidate";
        }
        // Deterministic: a second enumeration is element-wise identical.
        const auto again = EnumerateCpuBlockCandidates(cache, m, n, k,
                                                       threads);
        ASSERT_EQ(again.size(), cands.size());
        for (size_t i = 0; i < cands.size(); ++i) {
          EXPECT_TRUE(again[i] == cands[i]);
        }
      }
    }
  }
}

TEST(CandidateEnumerationTest, MultiThreadEmitsBothSchemes) {
  const CpuCacheInfo cache = cpukernels::HostCacheInfo();
  const auto serial = EnumerateCpuBlockCandidates(cache, 256, 256, 256, 1);
  for (const BlockConfig& c : serial) {
    EXPECT_EQ(c.scheme, ParallelScheme::kLoopLevel);
  }
  const auto parallel = EnumerateCpuBlockCandidates(cache, 256, 256, 256, 4);
  bool saw_batch = false;
  for (const BlockConfig& c : parallel) {
    saw_batch |= c.scheme == ParallelScheme::kBatchLevel;
  }
  EXPECT_TRUE(saw_batch);
  EXPECT_GT(parallel.size(), serial.size());
}

TEST(CandidateEnumerationTest, IsaBecomesAMeasuredAxisUnderAvx2) {
  const CpuCacheInfo cache = cpukernels::HostCacheInfo();
  // Scalar mode: every blocking rides with isa=kAuto, with both settings
  // of the prefetch axis (the only tunable besides the blocking itself).
  const auto scalar = EnumerateCpuBlockCandidates(
      cache, 256, 256, 256, 4, cpukernels::CpuIsa::kScalar);
  ASSERT_FALSE(scalar.empty());
  ASSERT_EQ(scalar.size() % 2, 0u);  // prefetch doubles every blocking
  EXPECT_TRUE(scalar[0] == BlockConfig{});
  size_t scalar_prefetch = 0;
  for (const BlockConfig& c : scalar) {
    EXPECT_EQ(c.isa, cpukernels::CpuIsa::kAuto);
    scalar_prefetch += c.prefetch ? 1 : 0;
  }
  EXPECT_EQ(scalar_prefetch, scalar.size() / 2);
  // AVX2 mode (testable only when the host resolves it; BOLT_CPU_ISA=
  // scalar also vetoes): the ISA turns into a measured axis — every
  // blocking additionally appears as an explicit kScalar variant
  // (prefetch off: the axis only rides the tier a default launch runs),
  // and the kAuto subsequence is exactly the scalar-mode set.
  if (cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAvx2) !=
      cpukernels::CpuIsa::kAvx2) {
    GTEST_SKIP() << "host or env pins the scalar tier";
  }
  const auto avx2 = EnumerateCpuBlockCandidates(
      cache, 256, 256, 256, 4, cpukernels::CpuIsa::kAvx2);
  ASSERT_EQ(avx2.size(), scalar.size() + scalar.size() / 2);
  EXPECT_TRUE(avx2[0] == BlockConfig{});
  std::vector<BlockConfig> autos, scalars;
  for (const BlockConfig& c : avx2) {
    (c.isa == cpukernels::CpuIsa::kAuto ? autos : scalars).push_back(c);
    EXPECT_TRUE(c.isa == cpukernels::CpuIsa::kAuto ||
                c.isa == cpukernels::CpuIsa::kScalar);
    EXPECT_TRUE(c.Validate().ok());
  }
  ASSERT_EQ(autos.size(), scalar.size());
  ASSERT_EQ(scalars.size(), scalar.size() / 2);
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_TRUE(autos[i] == scalar[i]);
  }
  for (const BlockConfig& c : scalars) {
    EXPECT_FALSE(c.prefetch);
  }
}

TEST(CandidateEnumerationTest, Avx512AddsAnExplicitAvx2Rung) {
  // When the ladder tops out at AVX-512, every blocking gains an explicit
  // kAvx2 variant on top of the kAuto/kScalar pair — wider vectors are
  // not always faster (512-bit port pressure, license downclocking), so
  // the narrower SIMD tier stays measurable.
  if (cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAvx512) !=
      cpukernels::CpuIsa::kAvx512) {
    GTEST_SKIP() << "host or env caps the ladder below AVX-512";
  }
  const CpuCacheInfo cache = cpukernels::HostCacheInfo();
  const auto base = EnumerateCpuBlockCandidates(
      cache, 256, 256, 256, 4, cpukernels::CpuIsa::kScalar);
  const auto wide = EnumerateCpuBlockCandidates(
      cache, 256, 256, 256, 4, cpukernels::CpuIsa::kAvx512);
  ASSERT_EQ(wide.size(), 2 * base.size());
  EXPECT_TRUE(wide[0] == BlockConfig{});
  std::vector<BlockConfig> autos;
  size_t n_scalar = 0, n_avx2 = 0;
  for (const BlockConfig& c : wide) {
    EXPECT_TRUE(c.Validate().ok());
    if (c.isa == cpukernels::CpuIsa::kAuto) {
      autos.push_back(c);
    } else {
      EXPECT_FALSE(c.prefetch);  // prefetch sweeps on kAuto only
      n_scalar += c.isa == cpukernels::CpuIsa::kScalar ? 1 : 0;
      n_avx2 += c.isa == cpukernels::CpuIsa::kAvx2 ? 1 : 0;
    }
  }
  ASSERT_EQ(autos.size(), base.size());
  EXPECT_EQ(n_scalar, base.size() / 2);
  EXPECT_EQ(n_avx2, base.size() / 2);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(autos[i] == base[i]);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential harness: ~200 (shape, layout, epilogue,
// BlockConfig, thread-count) tuples against the naive reference loops.
// Degenerate blocks ride through GemmCore's clamping; results must stay
// within the resolved tier regardless.
// ---------------------------------------------------------------------------

using difftest::RandomBlock;
const std::vector<ActivationKind>& kActs = difftest::kActivations;

TEST(DifferentialAutotuneTest, RandomizedGemmTuples) {
  Rng rng(2026);
  ThreadPool pool2(2), pool5(5);
  ThreadPool* pools[] = {nullptr, &pool2, &pool5};
  for (int trial = 0; trial < 120; ++trial) {
    const int64_t m = rng.Uniform(1, 40);
    const int64_t n = rng.Uniform(1, 33);
    const int64_t k = rng.Uniform(1, 80);
    const DType dt = trial % 3 == 0 ? DType::kFloat32 : DType::kFloat16;
    const BlockConfig block = RandomBlock(rng);
    ThreadPool* pool = pools[rng.Uniform(0, 2)];
    const bool has_bias = rng.Uniform(0, 1) == 1;
    const bool has_residual = rng.Uniform(0, 1) == 1;
    const ActivationKind act = kActs[rng.Uniform(0, 3)];
    SCOPED_TRACE(StrCat("trial=", trial, " m=", m, " n=", n, " k=", k,
                        " mc=", block.mc, " kc=", block.kc, " nc=", block.nc,
                        " scheme=", ParallelSchemeName(block.scheme),
                        " bias=", has_bias, " res=", has_residual));

    Tensor a = RandomTensor(TensorDesc(dt, {m, k}), 3000 + trial);
    Tensor w = RandomTensor(TensorDesc(dt, {n, k}), 4000 + trial);
    Tensor bias = RandomTensor(TensorDesc(dt, {n}), 5000 + trial);
    Tensor res = RandomTensor(TensorDesc(dt, {m, n}), 6000 + trial);

    cpukernels::Epilogue epi;
    epi.output_dtype = dt;
    epi.boundary_quantize = true;
    if (has_bias) epi.bias = bias.data().data();
    if (has_residual) epi.residual = res.data().data();
    epi.acts = {act};
    Tensor got = cpukernels::Gemm(a, w, epi, block, pool);

    Tensor want = refop::Dense(a, w);
    if (has_bias) want = refop::BiasAdd(want, bias);
    want = refop::Activation(want, act);
    if (has_residual) want = refop::Add(want, res);
    EXPECT_TRUE(difftest::CheckDiff(
        "gemm", got, want,
        difftest::ToleranceFor(cpukernels::ResolveCpuIsa(block.isa), dt)));
  }
}

TEST(DifferentialAutotuneTest, RandomizedConvTuples) {
  Rng rng(777);
  ThreadPool pool3(3);
  for (int trial = 0; trial < 80; ++trial) {
    const Layout layout = trial % 2 == 0 ? Layout::kNHWC : Layout::kNCHW;
    const int64_t h = rng.Uniform(4, 10);
    const int64_t c = rng.Uniform(1, 8);
    const int64_t oc = rng.Uniform(1, 10);
    const int64_t kernel = 1 + 2 * rng.Uniform(0, 1);
    const int64_t stride = rng.Uniform(1, 2);
    const int64_t pad = rng.Uniform(0, kernel - 1);
    const int64_t dilation = kernel == 3 ? rng.Uniform(1, 2) : 1;
    const BlockConfig block = RandomBlock(rng);
    ThreadPool* pool = rng.Uniform(0, 1) == 1 ? &pool3 : nullptr;
    const bool has_bias = rng.Uniform(0, 1) == 1;
    const ActivationKind act = kActs[rng.Uniform(0, 3)];
    SCOPED_TRACE(StrCat("trial=", trial, " h=", h, " c=", c, " oc=", oc,
                        " f=", kernel, " s=", stride, " p=", pad,
                        " d=", dilation, " ", LayoutName(layout),
                        " mc=", block.mc, " kc=", block.kc, " nc=", block.nc,
                        " scheme=", ParallelSchemeName(block.scheme)));

    std::vector<int64_t> xs = layout == Layout::kNHWC
                                  ? std::vector<int64_t>{1, h, h, c}
                                  : std::vector<int64_t>{1, c, h, h};
    Tensor x = RandomTensor(TensorDesc(DType::kFloat16, xs, layout),
                            7000 + trial);
    Tensor w = RandomTensor(
        TensorDesc(DType::kFloat16, {oc, kernel, kernel, c}), 8000 + trial);
    Tensor bias = RandomTensor(TensorDesc(DType::kFloat16, {oc}),
                               9000 + trial);

    Conv2dAttrs attrs;
    attrs.stride_h = attrs.stride_w = stride;
    attrs.pad_h = attrs.pad_w = pad;
    attrs.dilation_h = attrs.dilation_w = dilation;
    cpukernels::ConvParams p;
    p.stride_h = p.stride_w = stride;
    p.pad_h = p.pad_w = pad;
    p.dilation_h = p.dilation_w = dilation;

    cpukernels::Epilogue epi;
    epi.output_dtype = DType::kFloat16;
    epi.boundary_quantize = true;
    if (has_bias) epi.bias = bias.data().data();
    epi.acts = {act};
    Tensor got = cpukernels::Conv2d(x, w, p, epi, block, pool);

    Tensor want = refop::Conv2d(x, w, attrs);
    if (has_bias) want = refop::BiasAdd(want, bias);
    want = refop::Activation(want, act);
    EXPECT_TRUE(difftest::CheckDiff(
        "conv", got, want,
        difftest::ToleranceFor(cpukernels::ResolveCpuIsa(block.isa),
                               DType::kFloat16)));
  }
}

TEST(DifferentialAutotuneTest, SchemesAreBitIdentical) {
  // Loop-level and batch-level parallelization split the same serial nest
  // differently; per-element accumulation order is unchanged, so outputs
  // must agree to the bit (signed zeros included).
  ThreadPool pool(4);
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t m = rng.Uniform(1, 300);
    const int64_t n = rng.Uniform(1, 80);
    const int64_t k = rng.Uniform(1, 120);
    Tensor a = RandomTensor(TensorDesc(DType::kFloat16, {m, k}), 50 + trial);
    Tensor w = RandomTensor(TensorDesc(DType::kFloat16, {n, k}), 60 + trial);
    cpukernels::Epilogue epi;
    epi.output_dtype = DType::kFloat16;
    epi.boundary_quantize = true;
    BlockConfig loop;
    loop.mc = 32;
    loop.kc = 64;
    loop.nc = 48;
    loop.scheme = ParallelScheme::kLoopLevel;
    BlockConfig batch = loop;
    batch.scheme = ParallelScheme::kBatchLevel;
    Tensor serial = cpukernels::Gemm(a, w, epi, loop);
    Tensor lv = cpukernels::Gemm(a, w, epi, loop, &pool);
    Tensor bv = cpukernels::Gemm(a, w, epi, batch, &pool);
    ASSERT_EQ(serial.data().size(), bv.data().size());
    EXPECT_EQ(std::memcmp(serial.data().data(), lv.data().data(),
                          serial.data().size() * sizeof(float)),
              0)
        << "loop-level, m=" << m << " n=" << n << " k=" << k;
    EXPECT_EQ(std::memcmp(serial.data().data(), bv.data().data(),
                          serial.data().size() * sizeof(float)),
              0)
        << "batch-level, m=" << m << " n=" << n << " k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Tuned-block registry: backend gating and interpreter integration.
// ---------------------------------------------------------------------------

TEST(TunedRegistryTest, RegisterFindClearRoundTrip) {
  cpukernels::ClearTunedBlocks();
  BlockConfig c = BlockConfig::Make(32, 64, 48).value();
  EXPECT_TRUE(cpukernels::RegisterTunedBlock(TunedKind::kGemm, 7, 9, 11, c));
  EXPECT_EQ(cpukernels::TunedBlockCount(), 1);
  auto hit = cpukernels::FindTunedBlockForBackend(
      TunedKind::kGemm, 7, 9, 11, cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == c);
  // Same dims, other kind: distinct key.
  EXPECT_FALSE(cpukernels::FindTunedBlockForBackend(
                   TunedKind::kConv, 7, 9, 11,
                   cpukernels::Backend::kFastCpu)
                   .has_value());
  cpukernels::ClearTunedBlocks();
  EXPECT_EQ(cpukernels::TunedBlockCount(), 0);
}

TEST(TunedRegistryTest, InvalidBlocksAreRejected) {
  cpukernels::ClearTunedBlocks();
  BlockConfig bad;
  bad.mc = 3;  // < kMR
  EXPECT_FALSE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 1, 2, 3, bad));
  bad = BlockConfig{};
  bad.nc = 12;  // not a multiple of kNR
  EXPECT_FALSE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 1, 2, 3, bad));
  EXPECT_EQ(cpukernels::TunedBlockCount(), 0);
}

TEST(TunedRegistryTest, ReferenceBackendNeverSeesTunedBlocks) {
  // The regression the BOLT_CPU_BACKEND=ref env matrix guards: selecting
  // the reference backend must also disable tuned-block selection, so the
  // oracle's numerics can never depend on tuning state.
  cpukernels::ClearTunedBlocks();
  BlockConfig c = BlockConfig::Make(8, 16, 8).value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 5, 6, 7, c));
  EXPECT_TRUE(cpukernels::FindTunedBlockForBackend(
                  TunedKind::kGemm, 5, 6, 7, cpukernels::Backend::kFastCpu)
                  .has_value());
  EXPECT_FALSE(cpukernels::FindTunedBlockForBackend(
                   TunedKind::kGemm, 5, 6, 7,
                   cpukernels::Backend::kReference)
                   .has_value());
  // Belt and braces: the oracle's interpreter options opt out wholesale.
  EXPECT_FALSE(RefExecutor::ReferenceOptions().use_tuned_blocks);
  // The execution-path lookup under the process-wide backend selection
  // (what every interpreter launch passes) honors it.
  const bool expect_hit =
      cpukernels::DefaultBackend() == cpukernels::Backend::kFastCpu;
  EXPECT_EQ(cpukernels::FindTunedBlockNearBatch(TunedKind::kGemm, 5, 6, 7,
                                                cpukernels::DefaultBackend())
                .has_value(),
            expect_hit);
  cpukernels::ClearTunedBlocks();
}

TEST(TunedRegistryTest, InterpreterHonorsTunedBlocksBitExactly) {
  // Register deliberately extreme blockings for the exact problems a graph
  // executes; the fast interpreter must pick them up (use_tuned_blocks
  // default) and still match the oracle bit-for-bit.
  cpukernels::ClearTunedBlocks();
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {1, 9, 9, 6});
  NodeId w = b.Constant(
      "w", RandomTensor(TensorDesc(DType::kFloat16, {10, 3, 3, 6}), 70));
  NodeId conv = b.Conv2d(x, w, Conv2dAttrs{});
  NodeId flat = b.Flatten(b.GlobalAvgPool(conv));
  NodeId wd = b.Constant(
      "wd", RandomTensor(TensorDesc(DType::kFloat16, {4, 10}), 71));
  NodeId y = b.Dense(flat, wd);
  b.MarkOutput(y);
  Graph g = b.Build().value();
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(
      TensorDesc(DType::kFloat16, {1, 9, 9, 6}, Layout::kNHWC), 72);

  // Conv2dAttrs{} defaults: 3x3 stride-1 pad-0 -> oh = ow = 7.
  const int64_t conv_m = 1 * 7 * 7, conv_n = 10, conv_k = 3 * 3 * 6;
  // FP16 graph: bit-exact at every ISA rung (FP16 products are exact in
  // FP32, so FMA and multiply-then-add round identically).
  BlockConfig tiny = BlockConfig::Make(kMR, 8, kNR).value();
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(TunedKind::kConv, conv_m,
                                             conv_n, conv_k, tiny));
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 1, 4, 10, tiny));

  RefExecutor oracle(g);
  auto want = oracle.Run(in);
  ASSERT_TRUE(want.ok());
  InterpreterOptions o;
  o.backend = cpukernels::Backend::kFastCpu;
  auto got = Interpreter(g, o).Run(in);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[0].MaxAbsDiff(want.value()[0]), 0.0f);

  // Opting out must also match (tuning can never change numerics).
  o.use_tuned_blocks = false;
  auto untuned = Interpreter(g, o).Run(in);
  ASSERT_TRUE(untuned.ok());
  EXPECT_EQ(std::memcmp(got.value()[0].data().data(),
                        untuned.value()[0].data().data(),
                        got.value()[0].data().size() * sizeof(float)),
            0);
  cpukernels::ClearTunedBlocks();
}

// ---------------------------------------------------------------------------
// Profiler CPU measurement path: real sweeps, single measurement per
// workload, persistence round-trip re-activating the registry.
// ---------------------------------------------------------------------------

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

TEST(ProfileCpuTest, GemmSweepSelectsValidatedBlockAndRegisters) {
  cpukernels::ClearTunedBlocks();
  Profiler prof(kT4);
  CpuGemmWorkload w;
  w.m = 24;
  w.n = 16;
  w.k = 32;
  auto r = prof.ProfileCpuGemm(w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().cache_hit);
  EXPECT_TRUE(r.value().block.Validate().ok());
  EXPECT_GT(r.value().us, 0.0);
  const auto cands = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), w.m, w.n, w.k,
      cpukernels::DefaultNumThreads());
  EXPECT_EQ(r.value().candidates_tried, static_cast<int>(cands.size()));
  EXPECT_EQ(prof.cpu_cache_size(), 1);
  // Real measurement is charged to the tuning clock.
  EXPECT_GT(prof.clock().measure_seconds(), 0.0);
  // The winner is live in the execution registry.
  auto hit = cpukernels::FindTunedBlockForBackend(
      TunedKind::kGemm, w.m, w.n, w.k, cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == r.value().block);
  cpukernels::ClearTunedBlocks();
}

TEST(ProfileCpuTest, SecondProfileIsAZeroMeasurementCacheHit) {
  cpukernels::ClearTunedBlocks();
  Profiler prof(kT4);
  CpuGemmWorkload w;
  w.m = 20;
  w.n = 24;
  w.k = 40;
  auto first = prof.ProfileCpuGemm(w);
  ASSERT_TRUE(first.ok());
  const double clock_after_first = prof.clock().seconds();
  // A cache hit must re-assert the registry entry (second compiles restore
  // execution-time selection) while charging zero additional measurement.
  cpukernels::ClearTunedBlocks();
  auto second = prof.ProfileCpuGemm(w);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_TRUE(second.value().block == first.value().block);
  EXPECT_DOUBLE_EQ(second.value().us, first.value().us);
  EXPECT_DOUBLE_EQ(prof.clock().seconds(), clock_after_first);
  EXPECT_TRUE(cpukernels::FindTunedBlockForBackend(
                  TunedKind::kGemm, w.m, w.n, w.k,
                  cpukernels::Backend::kFastCpu)
                  .has_value());
  cpukernels::ClearTunedBlocks();
}

TEST(ProfileCpuTest, ConvSweepUsesImplicitGemmDims) {
  cpukernels::ClearTunedBlocks();
  Profiler prof(kT4);
  CpuConvWorkload w;
  w.batch = 1;
  w.h = 8;
  w.w = 8;
  w.c = 4;
  w.oc = 8;
  w.kh = 3;
  w.kw = 3;
  w.params.pad_h = w.params.pad_w = 1;
  const cpukernels::ConvGemmShape shape = w.GemmShape();
  EXPECT_EQ(shape.m, 1 * 8 * 8);
  EXPECT_EQ(shape.n, 8);
  EXPECT_EQ(shape.k, 3 * 3 * 4);
  auto r = prof.ProfileCpuConv(w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().block.Validate().ok());
  // Conv sweeps register under the workload's activation layout, not the
  // gemm default — the rowmajor slot must stay empty.
  EXPECT_TRUE(cpukernels::FindTunedBlockForBackend(
                  TunedKind::kConv, shape.m, shape.n, shape.k,
                  cpukernels::Backend::kFastCpu, w.layout)
                  .has_value());
  EXPECT_FALSE(cpukernels::FindTunedBlockForBackend(
                   TunedKind::kConv, shape.m, shape.n, shape.k,
                   cpukernels::Backend::kFastCpu)
                   .has_value());
  // A second conv with identical implicit-GEMM dims but different geometry
  // is a distinct workload (the cache key embeds the geometry).
  CpuConvWorkload w2 = w;
  w2.params.dilation_h = 1;  // identical -> hit
  auto again = prof.ProfileCpuConv(w2);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().cache_hit);
  cpukernels::ClearTunedBlocks();
}

TEST(ProfileCpuTest, RejectsDegenerateWorkloads) {
  Profiler prof(kT4);
  CpuGemmWorkload g;
  g.m = 0;
  g.n = 8;
  g.k = 8;
  EXPECT_FALSE(prof.ProfileCpuGemm(g).ok());
  CpuConvWorkload c;  // all-zero dims
  EXPECT_FALSE(prof.ProfileCpuConv(c).ok());
}

TEST(ProfileCpuTest, SaveLoadRoundTripReactivatesRegistry) {
  cpukernels::ClearTunedBlocks();
  Profiler session1(kT4);
  CpuGemmWorkload w;
  w.m = 12;
  w.n = 8;
  w.k = 16;
  auto r = session1.ProfileCpuGemm(w);
  ASSERT_TRUE(r.ok());
  std::ostringstream saved;
  ASSERT_TRUE(session1.SaveCache(saved).ok());

  cpukernels::ClearTunedBlocks();
  Profiler session2(kT4);
  std::istringstream in(saved.str());
  ASSERT_TRUE(session2.LoadCache(in).ok());
  EXPECT_EQ(session2.cpu_cache_size(), 1);
  // Loading alone re-activates execution-time selection...
  auto hit = cpukernels::FindTunedBlockForBackend(
      TunedKind::kGemm, w.m, w.n, w.k, cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == r.value().block);
  // ...and a re-profile is a pure cache hit with zero measurement time.
  const double clock_before = session2.clock().seconds();
  auto warm = session2.ProfileCpuGemm(w);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_DOUBLE_EQ(session2.clock().seconds(), clock_before);
  cpukernels::ClearTunedBlocks();
}

// ---------------------------------------------------------------------------
// Engine integration: CompileOptions::tune_cpu_kernels end to end.
// ---------------------------------------------------------------------------

Graph SmallMlp() {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {6, 20});
  NodeId w1 = b.Constant(
      "w1", RandomTensor(TensorDesc(DType::kFloat16, {16, 20}), 80));
  NodeId b1 =
      b.Constant("b1", RandomTensor(TensorDesc(DType::kFloat16, {16}), 81));
  NodeId w2 = b.Constant(
      "w2", RandomTensor(TensorDesc(DType::kFloat16, {8, 16}), 82));
  NodeId h = b.Activation(b.BiasAdd(b.Dense(x, w1), b1),
                          ActivationKind::kRelu);
  b.MarkOutput(b.Dense(h, w2));
  return b.Build().value();
}

TEST(EngineCpuTuneTest, TunedCompileMatchesUntunedBitExactly) {
  cpukernels::ClearTunedBlocks();
  const Graph g = SmallMlp();
  std::map<std::string, Tensor> in;
  in["x"] = RandomTensor(TensorDesc(DType::kFloat16, {6, 20}), 83);

  CompileOptions plain;
  auto untuned = Engine::Compile(g, plain);
  ASSERT_TRUE(untuned.ok());
  auto base = untuned->Run(in);
  ASSERT_TRUE(base.ok());

  Profiler shared(kT4);
  CompileOptions opts;
  opts.tune_cpu_kernels = true;
  opts.shared_profiler = &shared;
  auto tuned = Engine::Compile(g, opts);
  ASSERT_TRUE(tuned.ok());
  const TuningReport& report = tuned->tuning_report();

  if (cpukernels::DefaultBackend() == cpukernels::Backend::kReference) {
    // BOLT_CPU_BACKEND=ref regression: tuning must be a complete no-op.
    EXPECT_EQ(report.cpu_workloads_tuned, 0);
    EXPECT_EQ(report.cpu_candidates_tried, 0);
    EXPECT_EQ(cpukernels::TunedBlockCount(), 0);
  } else {
    EXPECT_GT(report.cpu_workloads_tuned, 0);
    EXPECT_GT(report.cpu_candidates_tried, 0);
    EXPECT_GT(cpukernels::TunedBlockCount(), 0);
  }

  // Tuned execution is bit-identical to the fixed heuristic at every rung:
  // the tuner also sweeps the ISA axis, but FP16 x FP16 products are exact
  // in FP32, so a scalar and an FMA block round each term identically.
  auto got = tuned->Run(in);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), base.value().size());
  for (size_t i = 0; i < base.value().size(); ++i) {
    ASSERT_EQ(got.value()[i].data().size(), base.value()[i].data().size());
    EXPECT_EQ(std::memcmp(got.value()[i].data().data(),
                          base.value()[i].data().data(),
                          base.value()[i].data().size() * sizeof(float)),
              0)
        << "output " << i;
  }
  cpukernels::ClearTunedBlocks();
}

TEST(EngineCpuTuneTest, SecondCompileHitsCpuCacheWithZeroMeasurement) {
  if (cpukernels::DefaultBackend() != cpukernels::Backend::kFastCpu) {
    GTEST_SKIP() << "CPU tuning is disabled under the reference backend";
  }
  cpukernels::ClearTunedBlocks();
  const Graph g = SmallMlp();
  Profiler shared(kT4);
  CompileOptions opts;
  opts.tune_cpu_kernels = true;
  opts.shared_profiler = &shared;

  auto first = Engine::Compile(g, opts);
  ASSERT_TRUE(first.ok());
  const TuningReport& r1 = first->tuning_report();
  EXPECT_GT(r1.cpu_workloads_tuned, 0);
  EXPECT_EQ(r1.cpu_cache_hits, 0);
  EXPECT_GT(r1.cpu_candidates_tried, 0);

  // Second compile against the shared profiler: every workload is a cache
  // hit and zero candidates are re-measured (the acceptance bar).
  cpukernels::ClearTunedBlocks();
  auto second = Engine::Compile(g, opts);
  ASSERT_TRUE(second.ok());
  const TuningReport& r2 = second->tuning_report();
  EXPECT_EQ(r2.cpu_workloads_tuned, r1.cpu_workloads_tuned);
  EXPECT_EQ(r2.cpu_cache_hits, r2.cpu_workloads_tuned);
  EXPECT_EQ(r2.cpu_candidates_tried, 0);
  // The cache hit alone restored execution-time selection.
  EXPECT_GT(cpukernels::TunedBlockCount(), 0);
  cpukernels::ClearTunedBlocks();
}

}  // namespace
}  // namespace bolt
