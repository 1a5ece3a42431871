// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Cutlite's functional GEMM and conv delegation to the blocked CPU
// backend:
//
//  * the delegated path consults the tuned-block registry — observable
//    through the cpu.tuned.lookup.{hit,miss} counters — and falls back to
//    the host default block (BlockConfig{}) on a miss, bit-identically
//    either way;
//  * every conv delegates, split-K or not (the direct loop ignores
//    split_k too), with results equal to the split_k == 1 kernel's;
//  * split-K GEMMs and column-reduction kernels keep the explicit tiled
//    traversal and never touch the registry (a poisoned-looking entry for
//    their exact problem shape must go unread).

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "cpukernels/backend.h"
#include "cpukernels/config.h"
#include "cpukernels/tuned.h"
#include "cutlite/conv.h"
#include "cutlite/gemm.h"
#include "ir/interpreter.h"

namespace bolt {
namespace cutlite {
namespace {

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat16, {rows, cols}, Layout::kRowMajor));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.3f);
  t.Quantize();
  return t;
}

KernelConfig DefaultConfig() {
  KernelConfig c;
  c.threadblock = GemmShape(128, 128, 32);
  c.warp = GemmShape(64, 64, 32);
  c.instruction = GemmShape(16, 8, 8);
  c.stages = 2;
  return c;
}

int64_t Hits() {
  return metrics::Registry::Global()
      .GetCounter("cpu.tuned.lookup.hit")
      .value();
}
int64_t Misses() {
  return metrics::Registry::Global()
      .GetCounter("cpu.tuned.lookup.miss")
      .value();
}

class CutliteDelegationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (cpukernels::DefaultBackend() != cpukernels::Backend::kFastCpu) {
      GTEST_SKIP() << "delegation only engages on the fast CPU backend";
    }
    cpukernels::ClearTunedBlocks();
  }
  void TearDown() override { cpukernels::ClearTunedBlocks(); }
};

TEST_F(CutliteDelegationTest, ConsultsTunedRegistryAndFallsBackOnMiss) {
  const int64_t m = 32, n = 64, k = 128;
  GemmKernel kernel(GemmCoord(m, n, k), DefaultConfig(),
                    EpilogueSpec::WithActivation(ActivationKind::kRelu));
  ASSERT_TRUE(kernel.CanImplement(kT4).ok());

  Tensor a = RandomMatrix(m, k, 101);
  Tensor w = RandomMatrix(n, k, 102);
  Tensor bias = RandomMatrix(1, n, 103);
  bias = Tensor(TensorDesc(DType::kFloat16, {n}, Layout::kRowMajor),
                bias.data());
  GemmArguments args;
  args.a = &a;
  args.w = &w;
  args.bias = &bias;

  // Empty registry: the delegation looks the shape up, misses, and uses
  // the host default block.
  const int64_t hits0 = Hits(), misses0 = Misses();
  auto miss_run = kernel.Run(args);
  ASSERT_TRUE(miss_run.ok());
  EXPECT_EQ(Hits(), hits0);
  EXPECT_EQ(Misses(), misses0 + 1);

  // Registered winner for this exact problem shape: the lookup hits.
  // The default block is 64x4096/kc256, so a deliberately different
  // blocking proves the registry entry is the one consulted.
  auto tuned = cpukernels::BlockConfig::Make(8, 16, 8);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(cpukernels::TunedKind::kGemm,
                                             m, n, k, tuned.value()));
  auto hit_run = kernel.Run(args);
  ASSERT_TRUE(hit_run.ok());
  EXPECT_EQ(Hits(), hits0 + 1);
  EXPECT_EQ(Misses(), misses0 + 1);

  // Any blocking computes in the same ascending-k order: the heuristic
  // and tuned paths are bit-identical to each other.  Against the per-op
  // quantized refop chain the fused epilogue (FP32 until the final store)
  // is only FP16-close, same as the cutlite functional tests.
  EXPECT_EQ(miss_run.value().MaxAbsDiff(hit_run.value()), 0.0f);
  Tensor want = refop::Dense(a, w);
  want = refop::BiasAdd(want, bias);
  want = refop::Activation(want, ActivationKind::kRelu);
  EXPECT_LE(hit_run.value().MaxAbsDiff(want), 2e-2f);
}

TEST_F(CutliteDelegationTest, SplitKConvDelegatesAndConsultsRegistryOnce) {
  ConvProblem p;
  p.h = p.w = 6;
  p.c = 16;
  p.k = 24;
  p.pad_h = p.pad_w = 1;
  KernelConfig split = DefaultConfig();
  split.split_k = 2;
  const EpilogueSpec epi =
      EpilogueSpec::WithActivation(ActivationKind::kRelu);
  Conv2dKernel kernel(p, split, epi);
  Conv2dKernel unsplit(p, DefaultConfig(), epi);
  ASSERT_TRUE(kernel.CanImplement(kT4).ok());

  Tensor x(TensorDesc(DType::kFloat16, {p.n, p.h, p.w, p.c}, Layout::kNHWC),
           RandomMatrix(p.h * p.w, p.c, 401).data());
  Tensor w(TensorDesc(DType::kFloat16, {p.k, p.r, p.s, p.c}),
           RandomMatrix(p.k, p.r * p.s * p.c, 402).data());
  Tensor bias(TensorDesc(DType::kFloat16, {p.k}, Layout::kRowMajor),
              RandomMatrix(1, p.k, 403).data());

  const int64_t hits0 = Hits(), misses0 = Misses();
  auto run = kernel.Run(x, w, &bias);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(Hits() + Misses(), hits0 + misses0 + 1);

  auto base = unsplit.Run(x, w, &bias);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(run->desc(), base->desc());
  for (int64_t i = 0; i < base->num_elements(); ++i) {
    EXPECT_EQ(run->at(i), base->at(i)) << "element " << i;
  }
}

TEST_F(CutliteDelegationTest, SplitKGemmKeepsTheExplicitPathAndSkipsRegistry) {
  const int64_t m = 32, n = 64, k = 128;
  KernelConfig config = DefaultConfig();
  config.split_k = 2;
  GemmKernel kernel(GemmCoord(m, n, k), config, EpilogueSpec::Linear());
  ASSERT_TRUE(kernel.CanImplement(kT4).ok());

  // An entry for this exact shape that split-K must never read.
  auto tuned = cpukernels::BlockConfig::Make(8, 16, 8);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(cpukernels::TunedKind::kGemm,
                                             m, n, k, tuned.value()));

  Tensor a = RandomMatrix(m, k, 201);
  Tensor w = RandomMatrix(n, k, 202);
  GemmArguments args;
  args.a = &a;
  args.w = &w;

  const int64_t hits0 = Hits(), misses0 = Misses();
  auto run = kernel.Run(args);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(Hits(), hits0);
  EXPECT_EQ(Misses(), misses0);

  // Split-K reduces FP32 partials before the epilogue; on these shapes
  // that is still bit-identical to the single-pass reference because the
  // slice boundaries align with the reference's ascending-k order only in
  // exact arithmetic — so compare against the unsplit kernel, which IS
  // covered by the delegation contract, within the quantized grid.
  GemmKernel unsplit(GemmCoord(m, n, k), DefaultConfig(),
                     EpilogueSpec::Linear());
  auto base = unsplit.Run(args);
  ASSERT_TRUE(base.ok());
  EXPECT_LE(run.value().MaxAbsDiff(base.value()), 2e-2f);
}

TEST_F(CutliteDelegationTest, ColumnReductionSkipsRegistry) {
  const int64_t m = 32, n = 64, k = 128;
  EpilogueSpec epi = EpilogueSpec::Linear();
  epi.column_reduction = true;
  GemmKernel kernel(GemmCoord(m, n, k), DefaultConfig(), epi);
  ASSERT_TRUE(kernel.CanImplement(kT4).ok());

  auto tuned = cpukernels::BlockConfig::Make(8, 16, 8);
  ASSERT_TRUE(tuned.ok());
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(cpukernels::TunedKind::kGemm,
                                             m, n, k, tuned.value()));

  Tensor a = RandomMatrix(m, k, 301);
  Tensor w = RandomMatrix(n, k, 302);
  Tensor column_sums;
  GemmArguments args;
  args.a = &a;
  args.w = &w;
  args.column_sums = &column_sums;

  const int64_t hits0 = Hits(), misses0 = Misses();
  auto run = kernel.Run(args);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(Hits(), hits0);
  EXPECT_EQ(Misses(), misses0);
  EXPECT_EQ(column_sums.num_elements(), n);
}

}  // namespace
}  // namespace cutlite
}  // namespace bolt
