// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The SIMD tier of the CPU backend (label: tolerance).
//
//  * ISA knob plumbing: ParseCpuIsa / the strict ParseCpuIsaEnv, the
//    ResolveCpuIsaFor decision matrix (env kill-switch, ladder clamp,
//    best-rung default) across all three rungs, arch-token suffixing.
//  * The differential harness proper: 512 randomized (shape, layout,
//    epilogue, BlockConfig, ISA, prefetch, thread-count) tuples per op —
//    GEMM and conv — against the reference interpreter, each held to the
//    tier of its *resolved* ISA: bit identity for scalar blocks, the
//    documented ULP bound (common/ulp.h) for AVX2/AVX-512 ones.
//  * The scalar guarantee is unconditional: an explicit isa=kScalar block
//    stays bit-identical to the reference even on AVX2/AVX-512 hosts and
//    under BOLT_CPU_ISA=avx2|avx512 — the kill-switch direction of the
//    two-tier contract.
//  * Dispatch reality check: on SIMD hosts the tiers genuinely take
//    different code paths (FMA contraction shows up in the bits).
//  * Packing equality: the vectorized PackB/PackA paths (pack_simd.cc)
//    produce byte-identical panels to the scalar reference loops across
//    nr in {8, 16}, remainder tiles, strided gathers, and null rows; the
//    pack-mode toggle and the prefetch axis never change output bits,
//    including the GELU/Sigmoid vector epilogue, which also matches the
//    scalar ApplyEpilogue on zeros, infinities, NaN, subnormals and the
//    exp clamp edges.
//  * Deterministic remainder-tile tuples: k not a multiple of kc, n/m
//    tails smaller than one micro-tile — the shapes where zero-padding
//    bugs in the vector pack paths would surface.
//
// Unlike the `exact`-labelled suites, the assertions here depend on the
// host ISA and BOLT_CPU_ISA, so this binary carries the `tolerance` ctest
// label and CI runs it across the forced-ISA matrix with
// $BOLT_DIFF_SUMMARY capturing the per-op ULP accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/exp_constants.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/ulp.h"
#include "cpukernels/config.h"
#include "cpukernels/conv.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/gemm.h"
#include "cpukernels/internal.h"
#include "cpukernels/micro.h"
#include "ir/graph.h"
#include "ir/interpreter.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace {

using cpukernels::BlockConfig;
using cpukernels::CpuIsa;
using cpukernels::ResolveCpuIsaFor;

bool HostHasAvx2Tier() {
  return cpukernels::DetectedCpuIsa() == CpuIsa::kAvx2;
}

// ---------------------------------------------------------------------------
// ISA knob: parsing and the resolution decision matrix.
// ---------------------------------------------------------------------------

TEST(CpuIsaTest, ParseAcceptsTheDocumentedSpellings) {
  CpuIsa isa = CpuIsa::kAvx2;
  EXPECT_TRUE(cpukernels::ParseCpuIsa("auto", &isa));
  EXPECT_EQ(isa, CpuIsa::kAuto);
  EXPECT_TRUE(cpukernels::ParseCpuIsa("scalar", &isa));
  EXPECT_EQ(isa, CpuIsa::kScalar);
  EXPECT_TRUE(cpukernels::ParseCpuIsa("avx2", &isa));
  EXPECT_EQ(isa, CpuIsa::kAvx2);
  EXPECT_TRUE(cpukernels::ParseCpuIsa("avx512", &isa));
  EXPECT_EQ(isa, CpuIsa::kAvx512);
  for (const char* bad : {"", "AVX2", "sse", "avx", "avx512f", "scalar ",
                          "1"}) {
    CpuIsa unchanged = CpuIsa::kScalar;
    EXPECT_FALSE(cpukernels::ParseCpuIsa(bad, &unchanged)) << bad;
    EXPECT_EQ(unchanged, CpuIsa::kScalar) << bad;
  }
}

TEST(CpuIsaTest, EnvParseIsStrictAboutGarbage) {
  // The regression this pins down: EnvCpuIsa used to swallow unparseable
  // BOLT_CPU_ISA values silently, running a different tier than the
  // operator asked for.  ParseCpuIsaEnv is the strict parse underneath
  // the (now warn-once) env read: exact vocabulary only, no truncation.
  using cpukernels::ParseCpuIsaEnv;
  EXPECT_FALSE(ParseCpuIsaEnv(nullptr).has_value());
  ASSERT_TRUE(ParseCpuIsaEnv("auto").has_value());
  EXPECT_EQ(*ParseCpuIsaEnv("auto"), CpuIsa::kAuto);
  EXPECT_EQ(*ParseCpuIsaEnv("scalar"), CpuIsa::kScalar);
  EXPECT_EQ(*ParseCpuIsaEnv("avx2"), CpuIsa::kAvx2);
  EXPECT_EQ(*ParseCpuIsaEnv("avx512"), CpuIsa::kAvx512);
  // Trailing garbage is rejected, never truncated to a valid prefix.
  for (const char* bad :
       {"", " ", "avx2 ", " avx2", "avx2,scalar", "scalar\n", "avx2x",
        "AVX512", "Scalar", "auto=1", "avx-512", "2"}) {
    EXPECT_FALSE(ParseCpuIsaEnv(bad).has_value()) << "\"" << bad << "\"";
  }
}

TEST(CpuIsaTest, PackModeEnvParseIsStrict) {
  using cpukernels::CpuPackMode;
  using cpukernels::ParseCpuPackModeEnv;
  EXPECT_FALSE(ParseCpuPackModeEnv(nullptr).has_value());
  ASSERT_TRUE(ParseCpuPackModeEnv("simd").has_value());
  EXPECT_EQ(*ParseCpuPackModeEnv("simd"), CpuPackMode::kSimd);
  EXPECT_EQ(*ParseCpuPackModeEnv("scalar"), CpuPackMode::kScalar);
  for (const char* bad : {"", "SIMD", "simd ", "scalar,simd", "auto"}) {
    EXPECT_FALSE(ParseCpuPackModeEnv(bad).has_value()) << "\"" << bad
                                                       << "\"";
  }
}

TEST(CpuIsaTest, ResolutionMatrix) {
  const CpuIsa A = CpuIsa::kAuto, S = CpuIsa::kScalar, V = CpuIsa::kAvx2,
               Z = CpuIsa::kAvx512;
  // env=scalar is a hard kill-switch regardless of request or host.
  for (CpuIsa requested : {A, S, V, Z}) {
    for (CpuIsa host : {S, V, Z}) {
      EXPECT_EQ(ResolveCpuIsaFor(requested, S, host), S);
    }
  }
  // Unset env (kAuto): kAuto takes the host's best probed rung, an
  // explicit request is honored clamped down the ladder to what the host
  // can run.
  EXPECT_EQ(ResolveCpuIsaFor(A, A, V), V);
  EXPECT_EQ(ResolveCpuIsaFor(A, A, Z), Z);
  EXPECT_EQ(ResolveCpuIsaFor(A, A, S), S);
  EXPECT_EQ(ResolveCpuIsaFor(V, A, V), V);
  EXPECT_EQ(ResolveCpuIsaFor(V, A, S), S);  // clamped to host
  EXPECT_EQ(ResolveCpuIsaFor(S, A, V), S);
  EXPECT_EQ(ResolveCpuIsaFor(Z, A, Z), Z);
  EXPECT_EQ(ResolveCpuIsaFor(Z, A, V), V);  // one rung down the ladder
  EXPECT_EQ(ResolveCpuIsaFor(Z, A, S), S);  // two rungs down
  EXPECT_EQ(ResolveCpuIsaFor(V, A, Z), V);  // a narrow request never widens
  // env=avx2 flips the default for kAuto requests, still host-clamped.
  EXPECT_EQ(ResolveCpuIsaFor(A, V, V), V);
  EXPECT_EQ(ResolveCpuIsaFor(A, V, S), S);
  EXPECT_EQ(ResolveCpuIsaFor(A, V, Z), V);  // env caps below the host
  EXPECT_EQ(ResolveCpuIsaFor(S, V, V), S);  // per-block scalar pin wins
  EXPECT_EQ(ResolveCpuIsaFor(V, V, V), V);
  // env=avx512: kAuto requests ride to the top rung the host supports.
  EXPECT_EQ(ResolveCpuIsaFor(A, Z, Z), Z);
  EXPECT_EQ(ResolveCpuIsaFor(A, Z, V), V);
  EXPECT_EQ(ResolveCpuIsaFor(A, Z, S), S);
  EXPECT_EQ(ResolveCpuIsaFor(S, Z, Z), S);  // scalar pin still wins
  EXPECT_EQ(ResolveCpuIsaFor(V, Z, Z), V);  // explicit narrow pin wins
  EXPECT_EQ(ResolveCpuIsaFor(Z, Z, Z), Z);
  // The resolved mode is never kAuto.
  for (CpuIsa requested : {A, S, V, Z}) {
    for (CpuIsa env : {A, S, V, Z}) {
      for (CpuIsa host : {S, V, Z}) {
        EXPECT_NE(ResolveCpuIsaFor(requested, env, host), A);
      }
    }
  }
}

TEST(CpuIsaTest, DetectionImpliesCompiledKernel) {
  if (HostHasAvx2Tier()) {
    EXPECT_TRUE(cpukernels::internal::Avx2MicroKernelAvailable());
  }
  if (cpukernels::DetectedCpuIsa() == CpuIsa::kAvx512) {
    EXPECT_TRUE(cpukernels::internal::Avx512MicroKernelAvailable());
    EXPECT_TRUE(cpukernels::HostSupportsAvx512());
    // The ladder never skips a rung: an AVX-512 host also has AVX2+FMA.
    EXPECT_TRUE(cpukernels::internal::Avx2MicroKernelAvailable());
  }
  // Never detects something the resolver would refuse.
  EXPECT_NE(cpukernels::DetectedCpuIsa(), CpuIsa::kAuto);
}

TEST(CpuIsaTest, ArchTokenCarriesTheIsaSuffix) {
  const auto info = cpukernels::HostCacheInfo();
  const std::string scalar_tok =
      cpukernels::CpuArchTokenFor(info, CpuIsa::kScalar);
  const std::string avx2_tok =
      cpukernels::CpuArchTokenFor(info, CpuIsa::kAvx2);
  const std::string avx512_tok =
      cpukernels::CpuArchTokenFor(info, CpuIsa::kAvx512);
  EXPECT_NE(scalar_tok, avx2_tok);
  EXPECT_NE(avx2_tok, avx512_tok);
  EXPECT_NE(scalar_tok.find("-scalar"), std::string::npos);
  EXPECT_NE(avx2_tok.find("-avx2"), std::string::npos);
  EXPECT_NE(avx512_tok.find("-avx512"), std::string::npos);
  // The process-wide token reflects the process default, so tuning-cache
  // records never cross ISA modes.
  EXPECT_EQ(cpukernels::CpuArchToken(),
            cpukernels::CpuArchTokenFor(info, cpukernels::DefaultCpuIsa()));
}

// ---------------------------------------------------------------------------
// The harness proper: 512 randomized tuples per op, tier picked from each
// block's resolved ISA.
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, RandomizedGemmTuples) {
  Rng rng(20260806);
  ThreadPool pool2(2), pool5(5);
  ThreadPool* pools[] = {nullptr, &pool2, &pool5};
  for (int trial = 0; trial < 512; ++trial) {
    const int64_t m = rng.Uniform(1, 40);
    const int64_t n = rng.Uniform(1, 33);
    const int64_t k = rng.Uniform(1, 80);
    const DType dt = trial % 3 == 0 ? DType::kFloat32 : DType::kFloat16;
    const BlockConfig block = difftest::RandomBlock(rng, /*isa_axis=*/true);
    ThreadPool* pool = pools[rng.Uniform(0, 2)];
    const bool has_bias = rng.Uniform(0, 1) == 1;
    const bool has_residual = rng.Uniform(0, 1) == 1;
    const ActivationKind act =
        difftest::kActivations[rng.Uniform(0, 3)];
    SCOPED_TRACE(StrCat("trial=", trial, " m=", m, " n=", n, " k=", k,
                        " mc=", block.mc, " kc=", block.kc, " nc=", block.nc,
                        " isa=", cpukernels::CpuIsaName(block.isa),
                        " bias=", has_bias, " res=", has_residual));

    Tensor a = difftest::RandomTensor(TensorDesc(dt, {m, k}), 13000 + trial);
    Tensor w = difftest::RandomTensor(TensorDesc(dt, {n, k}), 14000 + trial);
    Tensor bias = difftest::RandomTensor(TensorDesc(dt, {n}), 15000 + trial);
    Tensor res =
        difftest::RandomTensor(TensorDesc(dt, {m, n}), 16000 + trial);

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
  EXPECT_GE(difftest::StatsFor("gemm").checks, 512);
}

TEST(SimdDifferentialTest, RandomizedConvTuples) {
  Rng rng(20260807);
  ThreadPool pool3(3);
  int done = 0;
  for (int trial = 0; done < 512 && trial < 4096; ++trial) {
    const int64_t h = rng.Uniform(4, 10);
    // A quarter of the draws use block-aligned channels so the NCHWc arm
    // of the layout axis (which needs C and OC divisible by kNCHWcBlock)
    // gets real coverage instead of a rare aligned accident.
    const bool aligned = rng.Uniform(0, 3) == 0;
    const int64_t c =
        aligned ? kNCHWcBlock * rng.Uniform(1, 2) : rng.Uniform(1, 8);
    const int64_t oc =
        aligned ? kNCHWcBlock * rng.Uniform(1, 2) : rng.Uniform(1, 10);
    const Layout layout = difftest::RandomConvLayout(rng, c, oc);
    const int64_t kernel = 1 + 2 * rng.Uniform(0, 1);
    const int64_t stride = rng.Uniform(1, 2);
    const int64_t pad = rng.Uniform(0, kernel - 1);
    const int64_t dilation = kernel == 3 ? rng.Uniform(1, 2) : 1;
    // Skip draws whose output would be empty (e.g. h=4, dilated 3x3
    // kernel spanning 5, no padding) — the kernels BOLT_CHECK on those.
    if (h + 2 * pad < (kernel - 1) * dilation + 1) continue;
    ++done;
    const DType dt = trial % 4 == 0 ? DType::kFloat32 : DType::kFloat16;
    const BlockConfig block = difftest::RandomBlock(rng, /*isa_axis=*/true);
    ThreadPool* pool = rng.Uniform(0, 1) == 1 ? &pool3 : nullptr;
    const bool has_bias = rng.Uniform(0, 1) == 1;
    const ActivationKind act =
        difftest::kActivations[rng.Uniform(0, 3)];
    SCOPED_TRACE(StrCat("trial=", trial, " h=", h, " c=", c, " oc=", oc,
                        " f=", kernel, " s=", stride, " p=", pad,
                        " d=", dilation, " ", LayoutName(layout),
                        " isa=", cpukernels::CpuIsaName(block.isa)));

    std::vector<int64_t> xs = layout == Layout::kNHWC
                                  ? std::vector<int64_t>{1, h, h, c}
                                  : std::vector<int64_t>{1, c, h, h};
    Tensor x =
        difftest::RandomTensor(TensorDesc(dt, xs, layout), 17000 + trial);
    Tensor w = difftest::RandomTensor(
        TensorDesc(dt, {oc, kernel, kernel, c}), 18000 + trial);
    Tensor bias =
        difftest::RandomTensor(TensorDesc(dt, {oc}), 19000 + trial);

    Conv2dAttrs attrs;
    attrs.stride_h = attrs.stride_w = stride;
    attrs.pad_h = attrs.pad_w = pad;
    attrs.dilation_h = attrs.dilation_w = dilation;
    cpukernels::ConvParams p;
    p.stride_h = p.stride_w = stride;
    p.pad_h = p.pad_w = pad;
    p.dilation_h = p.dilation_w = dilation;

    cpukernels::Epilogue epi;
    epi.output_dtype = dt;
    epi.boundary_quantize = true;
    if (has_bias) epi.bias = bias.data().data();
    epi.acts = {act};
    Tensor got = cpukernels::Conv2d(x, w, p, epi, block, pool);

    Tensor want = refop::Conv2d(x, w, attrs);
    if (has_bias) want = refop::BiasAdd(want, bias);
    want = refop::Activation(want, act);
    EXPECT_TRUE(difftest::CheckDiff(
        "conv", got, want,
        difftest::ToleranceFor(cpukernels::ResolveCpuIsa(block.isa), dt)));
  }
  EXPECT_GE(difftest::StatsFor("conv").checks, 512);
}

// ---------------------------------------------------------------------------
// The scalar kill-switch direction: an explicit isa=kScalar block is
// bit-identical to the reference no matter what the host or env says.
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, ScalarBlocksStayBitExactEverywhere) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t m = rng.Uniform(1, 64);
    const int64_t n = rng.Uniform(1, 48);
    const int64_t k = rng.Uniform(1, 128);
    const DType dt = trial % 2 == 0 ? DType::kFloat32 : DType::kFloat16;
    BlockConfig block = difftest::RandomBlock(rng);
    block.isa = CpuIsa::kScalar;
    SCOPED_TRACE(StrCat("trial=", trial, " m=", m, " n=", n, " k=", k));
    Tensor a = difftest::RandomTensor(TensorDesc(dt, {m, k}), 21000 + trial);
    Tensor w = difftest::RandomTensor(TensorDesc(dt, {n, k}), 22000 + trial);
    cpukernels::Epilogue epi;
    epi.output_dtype = dt;
    epi.boundary_quantize = true;
    Tensor got = cpukernels::Gemm(a, w, epi, block);
    Tensor want = refop::Dense(a, w);
    EXPECT_TRUE(difftest::CheckDiff("gemm", got, want, difftest::Tolerance{}));
  }
}

// ---------------------------------------------------------------------------
// Dispatch reality check: the AVX2 tier genuinely executes different code.
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, Avx2TierActuallyDiverges) {
  if (cpukernels::ResolveCpuIsa(CpuIsa::kAvx2) != CpuIsa::kAvx2) {
    GTEST_SKIP() << "host or env pins the scalar tier";
  }
  // 64x64 FP32 outputs, each a 512-term dot product: if FMA contraction
  // were not happening, the two tiers would be running the same kernel.
  Tensor a = difftest::RandomTensor(
      TensorDesc(DType::kFloat32, {64, 512}), 31000);
  Tensor w = difftest::RandomTensor(
      TensorDesc(DType::kFloat32, {64, 512}), 32000);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat32;
  BlockConfig scalar, avx2;
  scalar.isa = CpuIsa::kScalar;
  avx2.isa = CpuIsa::kAvx2;
  Tensor s = cpukernels::Gemm(a, w, epi, scalar);
  Tensor v = cpukernels::Gemm(a, w, epi, avx2);
  EXPECT_GT(s.MaxAbsDiff(v), 0.0f)
      << "AVX2 and scalar tiers produced bit-identical results on a "
         "contraction-sensitive shape — is dispatch actually happening?";
  // ...but they diverge only within the documented bound.
  EXPECT_TRUE(difftest::CheckDiff(
      "gemm", v, s,
      difftest::ToleranceFor(CpuIsa::kAvx2, DType::kFloat32)));
}

TEST(SimdDifferentialTest, Avx512TierActuallyDiverges) {
  if (cpukernels::ResolveCpuIsa(CpuIsa::kAvx512) != CpuIsa::kAvx512) {
    GTEST_SKIP() << "host, binary, or env caps the ladder below AVX-512";
  }
  // Same contraction-sensitive shape as the AVX2 reality check: if the
  // 4x16 kernel were not actually dispatched, scalar and "avx512" would
  // agree to the bit.  (AVX-512 vs AVX2 is NOT asserted to diverge — both
  // run the same ascending-k FMA chain per element, just a different
  // number of lanes, so they may legitimately agree bit-for-bit.)
  Tensor a = difftest::RandomTensor(
      TensorDesc(DType::kFloat32, {64, 512}), 33000);
  Tensor w = difftest::RandomTensor(
      TensorDesc(DType::kFloat32, {64, 512}), 34000);
  cpukernels::Epilogue epi;
  epi.output_dtype = DType::kFloat32;
  BlockConfig scalar, avx512;
  scalar.isa = CpuIsa::kScalar;
  avx512.isa = CpuIsa::kAvx512;
  Tensor s = cpukernels::Gemm(a, w, epi, scalar);
  Tensor z = cpukernels::Gemm(a, w, epi, avx512);
  EXPECT_GT(s.MaxAbsDiff(z), 0.0f)
      << "AVX-512 and scalar tiers produced bit-identical results on a "
         "contraction-sensitive shape — is dispatch actually happening?";
  EXPECT_TRUE(difftest::CheckDiff(
      "gemm", z, s,
      difftest::ToleranceFor(CpuIsa::kAvx512, DType::kFloat32)));
}

TEST(SimdDifferentialTest, LargeKFp32StaysWithinTheMagnitudeBound) {
  // The per-element ULP bound breaks for deep FP32 dot products near
  // cancellation; Fp32GemmTierBound (common/ulp.h), scaled by K and
  // sum |a||b|, holds at any K.  Every rung is checked against scalar.
  for (const int64_t k : {int64_t{64}, int64_t{1000}, int64_t{4096}}) {
    const int64_t m = 6, n = 19;
    Tensor a = difftest::RandomTensor(TensorDesc(DType::kFloat32, {m, k}),
                                      35000 + k);
    Tensor w = difftest::RandomTensor(TensorDesc(DType::kFloat32, {n, k}),
                                      36000 + k);
    cpukernels::Epilogue epi;
    BlockConfig scalar;
    scalar.isa = CpuIsa::kScalar;
    const Tensor s = cpukernels::Gemm(a, w, epi, scalar);
    for (const CpuIsa isa : {CpuIsa::kAvx2, CpuIsa::kAvx512}) {
      SCOPED_TRACE(StrCat("k=", k, " isa=", cpukernels::CpuIsaName(isa)));
      BlockConfig block;
      block.isa = isa;
      const Tensor v = cpukernels::Gemm(a, w, epi, block);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          double abs_dot = 0.0;
          for (int64_t p = 0; p < k; ++p) {
            abs_dot += std::fabs(static_cast<double>(a.data()[i * k + p]) *
                                 w.data()[j * k + p]);
          }
          const size_t o = static_cast<size_t>(i * n + j);
          EXPECT_LE(std::fabs(static_cast<double>(v.data()[o]) - s.data()[o]),
                    Fp32GemmTierBound(k, abs_dot))
              << "i=" << i << " j=" << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-tier resolve matrix: every requestable tier runs the same workload
// and is held to its resolved tolerance.  On hosts missing a rung the
// request clamps down the ladder — which is the production path, so the
// assertion still holds (a clamped-to-scalar draw is checked bit-exact).
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, PerTierResolveMatrix) {
  ThreadPool pool2(2);
  for (const CpuIsa isa : {CpuIsa::kAuto, CpuIsa::kScalar, CpuIsa::kAvx2,
                           CpuIsa::kAvx512}) {
    const CpuIsa resolved = cpukernels::ResolveCpuIsa(isa);
    for (const DType dt : {DType::kFloat32, DType::kFloat16}) {
      SCOPED_TRACE(StrCat("isa=", cpukernels::CpuIsaName(isa), " resolved=",
                          cpukernels::CpuIsaName(resolved), " dt=",
                          DTypeName(dt)));
      BlockConfig block;
      block.isa = isa;
      block.prefetch = true;  // the axis must never change numerics
      Tensor a = difftest::RandomTensor(TensorDesc(dt, {21, 70}), 35000);
      Tensor w = difftest::RandomTensor(TensorDesc(dt, {19, 70}), 36000);
      Tensor bias = difftest::RandomTensor(TensorDesc(dt, {19}), 37000);
      cpukernels::Epilogue epi;
      epi.output_dtype = dt;
      epi.boundary_quantize = true;
      epi.bias = bias.data().data();
      epi.acts = {ActivationKind::kRelu};
      Tensor got = cpukernels::Gemm(a, w, epi, block, &pool2);
      Tensor want = refop::Activation(
          refop::BiasAdd(refop::Dense(a, w), bias), ActivationKind::kRelu);
      EXPECT_TRUE(difftest::CheckDiff("gemm", got, want,
                                      difftest::ToleranceFor(resolved, dt)));
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic remainder-tile tuples: the shapes where zero-padding bugs
// in the vector pack paths would surface — k not a multiple of kc, n and
// m tails smaller than one micro-tile, panels starting mid-matrix.
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, RemainderTileTuplesAreCoveredExplicitly) {
  const struct {
    int64_t m, n, k, mc, kc, nc;
  } cases[] = {
      {5, 19, 70, 8, 64, 16},      // m tail 1, n tail 3, k remainder 6
      {4, 17, 64, 4, 64, 8},       // n = 2*8 + 1: one scalar tail column
      {3, 7, 9, 64, 256, 4096},    // everything below one micro-tile
      {12, 16, 130, 8, 64, 8},     // k = 2*64 + 2: 2-deep trailing slice
      {9, 33, 97, 4, 32, 32},      // several jc panels, 1-wide k tail
      {1, 1, 1, 4, 8, 8},          // degenerate minimum
      {16, 15, 48, 8, 16, 16},     // n tail 7: widest masked tail load
  };
  for (const auto& c : cases) {
    for (const CpuIsa isa : {CpuIsa::kAuto, CpuIsa::kScalar, CpuIsa::kAvx2,
                             CpuIsa::kAvx512}) {
      const CpuIsa resolved = cpukernels::ResolveCpuIsa(isa);
      for (const DType dt : {DType::kFloat32, DType::kFloat16}) {
        SCOPED_TRACE(StrCat("m=", c.m, " n=", c.n, " k=", c.k, " mc=", c.mc,
                            " kc=", c.kc, " nc=", c.nc, " isa=",
                            cpukernels::CpuIsaName(isa), " dt=",
                            DTypeName(dt)));
        BlockConfig block;
        block.mc = static_cast<int>(c.mc);
        block.kc = static_cast<int>(c.kc);
        block.nc = static_cast<int>(c.nc);
        block.isa = isa;
        Tensor a = difftest::RandomTensor(TensorDesc(dt, {c.m, c.k}),
                                          41000 + c.m * 7 + c.k);
        Tensor w = difftest::RandomTensor(TensorDesc(dt, {c.n, c.k}),
                                          42000 + c.n * 7 + c.k);
        Tensor res = difftest::RandomTensor(TensorDesc(dt, {c.m, c.n}),
                                            43000 + c.m + c.n);
        cpukernels::Epilogue epi;
        epi.output_dtype = dt;
        epi.boundary_quantize = true;
        epi.residual = res.data().data();
        epi.acts = {ActivationKind::kHardswish};
        Tensor got = cpukernels::Gemm(a, w, epi, block);
        Tensor want = refop::Add(
            refop::Activation(refop::Dense(a, w), ActivationKind::kHardswish),
            res);
        EXPECT_TRUE(difftest::CheckDiff(
            "gemm", got, want, difftest::ToleranceFor(resolved, dt)));
      }
    }
  }
  // Conv remainders: a channel count below one vector (NHWC contiguous
  // runs of 5), the NCHW gather path with the same tail geometry, and
  // blocked NCHWc (which needs aligned channels) with its im2col runs
  // clamped at the 8-channel block boundary.
  for (const Layout layout :
       {Layout::kNHWC, Layout::kNCHW, Layout::kNCHWc}) {
    for (const CpuIsa isa : {CpuIsa::kAuto, CpuIsa::kAvx2,
                             CpuIsa::kAvx512}) {
      const CpuIsa resolved = cpukernels::ResolveCpuIsa(isa);
      SCOPED_TRACE(StrCat(LayoutName(layout), " isa=",
                          cpukernels::CpuIsaName(isa)));
      const bool blocked = layout == Layout::kNCHWc;
      const int64_t cc = blocked ? 8 : 5;   // NCHWc: one full channel block
      const int64_t oc = blocked ? 16 : 11;  // k = 3*3*8 = 72: 8-deep tail
      BlockConfig block;
      block.mc = 8;
      block.kc = 16;  // k = 3*3*5 = 45: a 13-deep trailing slice
      block.nc = 8;
      block.isa = isa;
      std::vector<int64_t> xs = layout == Layout::kNHWC
                                    ? std::vector<int64_t>{1, 7, 7, cc}
                                    : std::vector<int64_t>{1, cc, 7, 7};
      Tensor x = difftest::RandomTensor(
          TensorDesc(DType::kFloat16, xs, layout), 44000);
      Tensor w = difftest::RandomTensor(
          TensorDesc(DType::kFloat16, {oc, 3, 3, cc}), 45000);
      Conv2dAttrs attrs;
      attrs.pad_h = attrs.pad_w = 1;
      cpukernels::ConvParams p;
      p.pad_h = p.pad_w = 1;
      cpukernels::Epilogue epi;
      epi.output_dtype = DType::kFloat16;
      epi.boundary_quantize = true;
      epi.acts = {ActivationKind::kRelu};
      Tensor got = cpukernels::Conv2d(x, w, p, epi, block);
      Tensor want = refop::Activation(refop::Conv2d(x, w, attrs),
                                      ActivationKind::kRelu);
      EXPECT_TRUE(difftest::CheckDiff(
          "conv", got, want,
          difftest::ToleranceFor(resolved, DType::kFloat16)));
    }
  }
}

// ---------------------------------------------------------------------------
// Packing equality: the vectorized pack paths are *bit-identical data
// movement* — the SIMD tiers' ULP budget is spent only in the micro-kernel
// FMA.  These tests pin that claim at the byte level, remainders included.
// ---------------------------------------------------------------------------

TEST(SimdPackEqualityTest, PackBPanelSimdMatchesScalarPackB) {
  Rng rng(515151);
  const struct {
    int64_t n, k, j0, ncb, p0, kcb;
  } cases[] = {
      {8, 8, 0, 8, 0, 8},       // exactly one full strip
      {19, 70, 0, 19, 64, 6},   // n tail 3, k remainder 6
      {19, 70, 16, 3, 0, 64},   // last strip narrower than a micro-tile
      {1, 5, 0, 1, 0, 5},       // single column, sub-vector depth
      {23, 33, 8, 15, 30, 3},   // offset panel, 3-deep k tail
      {40, 100, 0, 40, 96, 4},  // several strips over a k tail
      {9, 17, 0, 9, 0, 17},     // 8 + 1 columns: one remainder column
      {15, 64, 0, 15, 0, 64},   // 7-wide masked tail
  };
  for (const int64_t nr : {int64_t{8}, int64_t{16}}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(StrCat("nr=", nr, " n=", c.n, " k=", c.k, " j0=", c.j0,
                          " ncb=", c.ncb, " p0=", c.p0, " kcb=", c.kcb));
      std::vector<float> w(static_cast<size_t>(c.n * c.k));
      rng.FillNormal(w);
      const int64_t strips = cpukernels::internal::CeilDiv(c.ncb, nr);
      const size_t bytes = static_cast<size_t>(strips * c.kcb * nr);
      // Sentinel-fill both buffers so a byte the packer forgot to write
      // (instead of zero-padding) shows up as a mismatch.
      std::vector<float> want(bytes, -777.0f), got(bytes, -777.0f);
      cpukernels::internal::PackB(w.data(), c.k, c.n, c.j0, c.ncb, c.p0,
                                  c.kcb, nr, want.data());
      for (const bool prefetch : {false, true}) {
        std::fill(got.begin(), got.end(), -777.0f);
        cpukernels::internal::PackBPanelSimd(w.data(), c.k, c.n, c.j0,
                                             c.ncb, c.p0, c.kcb, nr,
                                             prefetch, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              bytes * sizeof(float)),
                  0)
            << "prefetch=" << prefetch;
      }
    }
  }
}

TEST(SimdPackEqualityTest, PackA4RunSimdMatchesScalarGather) {
  Rng rng(626262);
  std::vector<float> buf(4096);
  rng.FillNormal(buf);
  for (const int64_t stride : {int64_t{1}, int64_t{3}, int64_t{7},
                               int64_t{40}}) {
    for (const int64_t len : {int64_t{1}, int64_t{2}, int64_t{3},
                              int64_t{4}, int64_t{5}, int64_t{7},
                              int64_t{8}, int64_t{9}, int64_t{15},
                              int64_t{16}, int64_t{31}, int64_t{64}}) {
      for (int mask = 0; mask < 16; ++mask) {  // every null-row pattern
        SCOPED_TRACE(StrCat("stride=", stride, " len=", len, " mask=",
                            mask));
        const float* rows[4];
        for (int r = 0; r < 4; ++r) {
          rows[r] = (mask >> r) & 1 ? buf.data() + r * 61 : nullptr;
        }
        std::vector<float> want(static_cast<size_t>(len * 4), -777.0f);
        std::vector<float> got(static_cast<size_t>(len * 4), -777.0f);
        for (int64_t t = 0; t < len; ++t) {
          for (int r = 0; r < 4; ++r) {
            want[static_cast<size_t>(t * 4 + r)] =
                rows[r] != nullptr ? rows[r][t * stride] : 0.0f;
          }
        }
        cpukernels::internal::PackA4RunSimd(rows, len, stride, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(SimdPackEqualityTest, PackModeToggleIsBitExact) {
  // BOLT_CPU_PACK=scalar (here: the runtime override) must reproduce the
  // vectorized pack/epilogue output exactly — same micro-kernel tier,
  // only the data movement differs, and data movement has no rounding.
  // GELU and Sigmoid run the vector mirror of ExpPortable in the SIMD
  // epilogue and the scalar ApplyActivation in the scalar one; N tails
  // 1..17 cover every masked remainder of the 8-lane epilogue.
  if (cpukernels::ResolveCpuIsa(CpuIsa::kAvx2) != CpuIsa::kAvx2) {
    GTEST_SKIP() << "host or env pins the scalar tier";
  }
  const cpukernels::CpuPackMode prev = cpukernels::CurrentCpuPackMode();
  struct Case {
    int64_t m, n, k;
  };
  std::vector<Case> cases = {{5, 19, 70}, {32, 33, 65}, {1, 1, 1},
                             {24, 16, 128}};
  for (int64_t n = 1; n <= 17; ++n) cases.push_back({3, n, 40});
  for (const ActivationKind act :
       {ActivationKind::kHardswish, ActivationKind::kGelu,
        ActivationKind::kSigmoid}) {
    for (const bool boundary : {true, false}) {
      for (const auto& c : cases) {
        for (const DType dt : {DType::kFloat32, DType::kFloat16}) {
          SCOPED_TRACE(StrCat("act=", ActivationName(act), " boundary=",
                              boundary, " m=", c.m, " n=", c.n, " k=", c.k,
                              " dt=", DTypeName(dt)));
          BlockConfig block;
          block.isa = CpuIsa::kAvx2;
          Tensor a =
              difftest::RandomTensor(TensorDesc(dt, {c.m, c.k}), 51000);
          Tensor w =
              difftest::RandomTensor(TensorDesc(dt, {c.n, c.k}), 52000);
          Tensor bias = difftest::RandomTensor(TensorDesc(dt, {c.n}), 53000);
          Tensor res = difftest::RandomTensor(TensorDesc(dt, {c.m, c.n}),
                                              54000);
          cpukernels::Epilogue epi;
          epi.output_dtype = dt;
          epi.boundary_quantize = boundary;
          if (!boundary) {
            epi.alpha = 1.25f;
            epi.beta = 0.5f;
          }
          epi.bias = bias.data().data();
          epi.residual = res.data().data();
          epi.acts = {act};
          // The SIMD pack mode must really take the vector epilogue.
          cpukernels::SetCpuPackMode(cpukernels::CpuPackMode::kSimd);
          EXPECT_EQ(cpukernels::internal::BuildLaunchPlan(
                        CpuIsa::kAvx2, block, epi, /*contiguous_rows=*/true)
                        .simd_epi,
                    cpukernels::internal::SimdPackAvailable() &&
                        (cpukernels::HostSupportsF16c() || !epi.quantizes()));
          cpukernels::SetCpuPackMode(cpukernels::CpuPackMode::kScalar);
          Tensor scalar_pack = cpukernels::Gemm(a, w, epi, block);
          cpukernels::SetCpuPackMode(cpukernels::CpuPackMode::kSimd);
          Tensor simd_pack = cpukernels::Gemm(a, w, epi, block);
          EXPECT_EQ(std::memcmp(scalar_pack.data().data(),
                                simd_pack.data().data(),
                                scalar_pack.data().size() * sizeof(float)),
                    0);
        }
      }
    }
  }
  cpukernels::SetCpuPackMode(prev);
}

TEST(SimdPackEqualityTest, GeluSigmoidEpilogueMatchesScalarOnSpecials) {
  // EpilogueRowSimd against ApplyEpilogue, element for element, on the
  // inputs where a vector mirror is most likely to part ways with the
  // scalar chain: signed zeros, infinities, NaN, subnormals, and values
  // that put ExpPortable's argument on and beyond its clamp and overflow
  // edges (-87, 88, 88.376, 89).
  if (cpukernels::ResolveCpuIsa(CpuIsa::kAvx2) != CpuIsa::kAvx2) {
    GTEST_SKIP() << "host or env pins the scalar tier";
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  std::vector<float> xs = {0.0f,    -0.0f,    inf,     -inf,
                           std::numeric_limits<float>::quiet_NaN(),
                           1e-40f,  -1e-40f,  1e-45f,  -1e-45f,
                           std::numeric_limits<float>::min(),
                           big,     -big,     1e30f,   -1e30f};
  // Sigmoid's exp argument is -x; GELU's is -2 * inner(x), which falls
  // monotonically in x, so bisection finds the x that hits each bound.
  auto gelu_arg = [](float x) {
    return -2.0f *
           (expconst::kGeluAlpha * (x + expconst::kGeluBeta * x * x * x));
  };
  for (const float bound : {-89.0f, -88.0f, -87.0f, 87.0f, 88.0f, 88.376f,
                            89.0f}) {
    float lo = -30.0f, hi = 30.0f;
    for (int it = 0; it < 60; ++it) {
      const float mid = 0.5f * (lo + hi);
      (gelu_arg(mid) > bound ? lo : hi) = mid;
    }
    for (const float x : {lo, hi}) {
      xs.insert(xs.end(), {std::nextafter(x, -inf), x,
                           std::nextafter(x, inf), x - 1.0f, x + 1.0f});
    }
    xs.insert(xs.end(), {bound, -bound, std::nextafter(bound, inf),
                         std::nextafter(bound, -inf), bound * 1.5f});
  }
  for (float x = -12.0f; x <= 12.0f; x += 0.0625f) xs.push_back(x);

  for (const ActivationKind act :
       {ActivationKind::kGelu, ActivationKind::kSigmoid}) {
    for (const DType dt : {DType::kFloat32, DType::kFloat16}) {
      for (const bool boundary : {true, false}) {
        SCOPED_TRACE(StrCat("act=", ActivationName(act), " dt=",
                            DTypeName(dt), " boundary=", boundary));
        cpukernels::Epilogue epi;
        epi.output_dtype = dt;
        epi.boundary_quantize = boundary;
        epi.acts = {act};
        const int op = cpukernels::internal::EpiActOpcode(act);
        std::vector<float> got(xs.size(), -777.0f);
        cpukernels::internal::EpilogueRowSimd(
            xs.data(), got.data(), nullptr, nullptr,
            static_cast<int64_t>(xs.size()), epi.alpha, epi.beta, &op, 1,
            epi.boundary_quantize, epi.quantizes());
        for (size_t i = 0; i < xs.size(); ++i) {
          const float want = cpukernels::ApplyEpilogue(epi, xs[i], 0.0f, 0.0f);
          if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got[i])) << "x=" << xs[i];
            continue;
          }
          EXPECT_EQ(std::memcmp(&want, &got[i], sizeof(float)), 0)
              << "x=" << xs[i] << " scalar=" << want << " simd=" << got[i];
        }
        if (act == ActivationKind::kGelu) {
          // GELU(-inf) is its limit -0 on both paths, not -inf/inf = NaN.
          ASSERT_EQ(xs[3], -inf);
          EXPECT_EQ(got[3], 0.0f);
          EXPECT_TRUE(std::signbit(got[3]));
        }
      }
    }
  }
}

TEST(SimdPackEqualityTest, NchwcConvPackModeToggleIsBitExact) {
  // Blocked-NCHWc im2col feeds PackA4RunSimd stride-1 runs clamped at the
  // 8-channel block boundary; the scalar and SIMD packers must move
  // identical bytes there too — padding-induced null rows, strided taps,
  // multi-block channels, and remainder tiles included.
  if (cpukernels::ResolveCpuIsa(CpuIsa::kAvx2) != CpuIsa::kAvx2) {
    GTEST_SKIP() << "host or env pins the scalar tier";
  }
  const cpukernels::CpuPackMode prev = cpukernels::CurrentCpuPackMode();
  const struct {
    int64_t h, c, oc, kernel, stride, pad;
  } cases[] = {
      {7, 8, 8, 3, 1, 1},    // padding: null rows at every edge
      {5, 16, 8, 3, 2, 0},   // two channel blocks, strided taps
      {4, 8, 16, 1, 1, 0},   // pointwise: pure block-copy packing
      {9, 24, 8, 3, 1, 2},   // three blocks, halo wider than the kernel
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(StrCat("h=", c.h, " c=", c.c, " oc=", c.oc, " f=",
                        c.kernel, " s=", c.stride, " p=", c.pad));
    BlockConfig block;
    block.isa = CpuIsa::kAvx2;
    block.mc = 8;
    block.kc = 16;
    block.nc = 8;
    Tensor x = difftest::RandomTensor(
        TensorDesc(DType::kFloat16, {1, c.c, c.h, c.h}, Layout::kNCHWc),
        61000 + c.h);
    Tensor w = difftest::RandomTensor(
        TensorDesc(DType::kFloat16, {c.oc, c.kernel, c.kernel, c.c}),
        62000 + c.h);
    cpukernels::ConvParams p;
    p.stride_h = p.stride_w = c.stride;
    p.pad_h = p.pad_w = c.pad;
    cpukernels::Epilogue epi;
    epi.output_dtype = DType::kFloat16;
    epi.boundary_quantize = true;
    cpukernels::SetCpuPackMode(cpukernels::CpuPackMode::kScalar);
    Tensor scalar_pack = cpukernels::Conv2d(x, w, p, epi, block);
    cpukernels::SetCpuPackMode(cpukernels::CpuPackMode::kSimd);
    Tensor simd_pack = cpukernels::Conv2d(x, w, p, epi, block);
    EXPECT_EQ(std::memcmp(scalar_pack.data().data(),
                          simd_pack.data().data(),
                          scalar_pack.data().size() * sizeof(float)),
              0);
  }
  cpukernels::SetCpuPackMode(prev);
}

// ---------------------------------------------------------------------------
// Summary plumbing: the JSON artifact CI uploads.
// ---------------------------------------------------------------------------

TEST(SimdDifferentialTest, DiffSummaryRoundTrips) {
  const std::string path =
      StrCat(::testing::TempDir(), "bolt_diff_summary.json");
  ASSERT_TRUE(difftest::WriteDiffSummary(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"isa\""), std::string::npos);
  EXPECT_NE(json.find("\"gemm\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bolt
