// Tests for persistent (back-to-back) kernels: threadblock residence,
// RF- vs shared-memory-resident strategies, and the performance invariants
// of Table 1/2.  Fused execution is the engine's KernelStep; test_engine
// pins it bit-identical to the unfused graph.

#include <gtest/gtest.h>

#include "cutlite/b2b.h"
#include "models/workloads.h"

namespace bolt {
namespace cutlite {
namespace {

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

KernelConfig StageConfig(int tb_m, int tb_n, int warp_m, int warp_n,
                         int k_align = 8, int n_align = 8) {
  KernelConfig c;
  c.threadblock = GemmShape(tb_m, tb_n, 32);
  c.warp = GemmShape(warp_m, warp_n, 32);
  c.instruction = GemmShape(16, 8, 8);
  c.stages = 2;
  c.swizzle = Swizzle::kIdentity1;
  c.align_a = c.align_b = k_align;
  c.align_c = n_align;
  return c;
}

std::vector<B2bStage> MakeStages() {
  // GEMM0: 512x64x128, GEMM1: 512x32x64 — RF-residence compatible.
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  return {
      B2bStage{GemmCoord(512, 64, 128), StageConfig(64, 64, 32, 64), relu},
      B2bStage{GemmCoord(512, 32, 64), StageConfig(64, 32, 32, 32), relu},
  };
}

TEST(ResidenceTest, AcceptsCompatibleStages) {
  EXPECT_TRUE(CheckThreadblockResidenceGemm(MakeStages()).ok());
  EXPECT_TRUE(CheckRfResidenceGemm(MakeStages(), kT4).ok());
}

TEST(ResidenceTest, RejectsThreadblockNotCoveringN) {
  auto stages = MakeStages();
  stages[0].config.threadblock = GemmShape(64, 32, 32);  // N=64 needs 2 tiles
  stages[0].config.warp = GemmShape(32, 32, 32);
  EXPECT_EQ(CheckThreadblockResidenceGemm(stages).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResidenceTest, RejectsMismatchedM) {
  auto stages = MakeStages();
  stages[1].problem.m = 256;
  EXPECT_FALSE(CheckThreadblockResidenceGemm(stages).ok());
}

TEST(ResidenceTest, RejectsUnchainedK) {
  auto stages = MakeStages();
  stages[1].problem.k = 128;  // must equal N0 = 64
  EXPECT_FALSE(CheckThreadblockResidenceGemm(stages).ok());
}

TEST(ResidenceTest, RfRequiresWarpNEqualTbN) {
  auto stages = MakeStages();
  stages[0].config.warp = GemmShape(64, 32, 32);  // Warp_N != TB_N
  EXPECT_TRUE(CheckThreadblockResidenceGemm(stages).ok());
  EXPECT_EQ(CheckRfResidenceGemm(stages, kT4).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResidenceTest, SingleStageRejected) {
  std::vector<B2bStage> one = {MakeStages()[0]};
  EXPECT_FALSE(CheckThreadblockResidenceGemm(one).ok());
}

TEST(B2bGemmTest, FusedFasterThanUnfusedOnMemoryBoundChain) {
  auto stages = MakeStages();
  // Large M makes the chain memory-bound — the paper's target regime.
  for (auto& s : stages) s.problem.m = 65536;
  auto kernel =
      B2bGemmKernel::Create(stages, ResidenceKind::kRegisterFile, kT4);
  ASSERT_TRUE(kernel.ok());
  EXPECT_LT(kernel->EstimateUs(kT4), kernel->EstimateUnfusedUs(kT4));
}

TEST(B2bGemmTest, SmemResidenceRelaxesWarpConstraint) {
  // A stage whose warps split N violates RF residence but is accepted by
  // the shared-memory strategy — the exact relaxation of Section 3.1.1.
  auto stages = MakeStages();
  stages[0].config.warp = GemmShape(32, 32, 32);  // Warp_N != TB_N
  stages[1].config.warp = GemmShape(32, 16, 32);  // keep warp counts equal
  EXPECT_FALSE(
      B2bGemmKernel::Create(stages, ResidenceKind::kRegisterFile, kT4)
          .ok());
  EXPECT_TRUE(
      B2bGemmKernel::Create(stages, ResidenceKind::kSharedMemory, kT4)
          .ok());
}

TEST(B2bGemmTest, SmemResidenceChargesIntermediateRoundTrip) {
  // With identical stage configs, the smem-resident estimate includes the
  // RF->smem->RF round trip of the intermediate tile in its mainloop.
  auto stages = MakeStages();
  for (auto& s : stages) s.problem.m = 65536;
  auto rf =
      B2bGemmKernel::Create(stages, ResidenceKind::kRegisterFile, kT4);
  auto smem =
      B2bGemmKernel::Create(stages, ResidenceKind::kSharedMemory, kT4);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(smem.ok());
  // Same per-stage mainloops; the difference between the two strategies
  // is occupancy (RF pressure vs smem footprint) plus the explicit smem
  // transfer term. Both must be finite and within 2x of each other.
  const double rf_us = rf->EstimateUs(kT4);
  const double smem_us = smem->EstimateUs(kT4);
  EXPECT_GT(rf_us, 0.0);
  EXPECT_GT(smem_us, 0.0);
  EXPECT_LT(std::max(rf_us, smem_us) / std::min(rf_us, smem_us), 2.0);
}

TEST(B2bGemmTest, ThreeStageChain) {
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  std::vector<B2bStage> stages = {
      B2bStage{GemmCoord(1024, 64, 32), StageConfig(64, 64, 32, 64), relu},
      B2bStage{GemmCoord(1024, 32, 64), StageConfig(64, 32, 32, 32), relu},
      B2bStage{GemmCoord(1024, 16, 32),
               StageConfig(64, 16, 32, 16, 8, 8), relu},
  };
  auto kernel =
      B2bGemmKernel::Create(stages, ResidenceKind::kRegisterFile, kT4);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_EQ(kernel->stages().size(), 3u);
}

// ---- Conv fusion ----------------------------------------------------------

std::vector<B2bConvStage> MakeConvStages() {
  ConvProblem c0;
  c0.n = 1;
  c0.h = c0.w = 8;
  c0.c = 8;
  c0.k = 16;
  c0.r = c0.s = 3;
  c0.pad_h = c0.pad_w = 1;
  ConvProblem c1;
  c1.n = 1;
  c1.h = c1.w = 8;
  c1.c = 16;
  c1.k = 16;
  c1.r = c1.s = 1;
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  return {
      B2bConvStage{c0, StageConfig(64, 16, 32, 16), relu},
      B2bConvStage{c1, StageConfig(64, 16, 32, 16), relu},
  };
}

TEST(B2bConvTest, ResidenceRequiresPointwiseSecondStage) {
  auto stages = MakeConvStages();
  stages[1].problem.r = stages[1].problem.s = 3;
  stages[1].problem.pad_h = stages[1].problem.pad_w = 1;
  EXPECT_FALSE(CheckThreadblockResidenceConv(stages).ok());
}

TEST(B2bConvTest, ResidenceRequiresChannelChaining) {
  auto stages = MakeConvStages();
  stages[1].problem.c = 32;
  EXPECT_FALSE(CheckThreadblockResidenceConv(stages).ok());
}

TEST(B2bConvTest, PaperWorkloadsAreFeasibleAndBeneficialWhenAligned) {
  // Table 2 rows with aligned input channels (48/64).
  for (const auto& w : workloads::Table2Workloads()) {
    if (w.conv0.c % 8 != 0) continue;
    EpilogueSpec e = EpilogueSpec::WithActivation(ActivationKind::kRelu);
    const int tb_n0 = static_cast<int>(w.conv0.k);
    const int tb_n1 = static_cast<int>(w.conv1.k);
    std::vector<B2bConvStage> stages = {
        B2bConvStage{w.conv0, StageConfig(64, tb_n0, 32, tb_n0), e},
        B2bConvStage{w.conv1, StageConfig(64, tb_n1, 32, tb_n1), e},
    };
    auto kernel = B2bConvKernel::Create(stages,
                                        ResidenceKind::kRegisterFile, kT4);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_LT(kernel->EstimateUs(kT4), kernel->EstimateUnfusedUs(kT4));
  }
}

TEST(ChooseResidenceTest, PicksTheFasterValidStrategy) {
  auto stages = MakeStages();
  for (auto& s : stages) s.problem.m = 65536;
  ResidenceChoice choice = ChooseResidenceGemm(stages, kT4);
  EXPECT_TRUE(choice.rf_valid);
  EXPECT_TRUE(choice.smem_valid);
  const ResidenceKind expected = choice.rf_us <= choice.smem_us
                                     ? ResidenceKind::kRegisterFile
                                     : ResidenceKind::kSharedMemory;
  EXPECT_EQ(choice.best, expected);
}

TEST(ChooseResidenceTest, FallsBackToSmemWhenRfInfeasible) {
  auto stages = MakeStages();
  stages[0].config.warp = GemmShape(32, 32, 32);  // RF-incompatible
  stages[1].config.warp = GemmShape(32, 16, 32);  // keep warp counts equal
  ResidenceChoice choice = ChooseResidenceGemm(stages, kT4);
  EXPECT_FALSE(choice.rf_valid);
  EXPECT_TRUE(choice.smem_valid);
  EXPECT_EQ(choice.best, ResidenceKind::kSharedMemory);
}

}  // namespace
}  // namespace cutlite
}  // namespace bolt
