// Tests for the cutlite implicit-GEMM Conv2D kernel.

#include <gtest/gtest.h>

#include "cutlite/conv.h"

namespace bolt {
namespace cutlite {
namespace {

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

KernelConfig SmallConfig() {
  KernelConfig c;
  c.threadblock = GemmShape(64, 16, 16);
  c.warp = GemmShape(32, 16, 16);
  c.instruction = GemmShape(16, 8, 8);
  c.stages = 2;
  c.align_a = c.align_b = c.align_c = 8;
  return c;
}

TEST(ConvProblemTest, ImplicitGemmCoordinates) {
  ConvProblem p;
  p.n = 32;
  p.h = p.w = 56;
  p.c = 64;
  p.k = 64;
  p.r = p.s = 3;
  p.pad_h = p.pad_w = 1;
  const GemmCoord g = p.AsGemm();
  EXPECT_EQ(g.m, 32 * 56 * 56);
  EXPECT_EQ(g.n, 64);
  EXPECT_EQ(g.k, 3 * 3 * 64);
}

TEST(ConvProblemTest, OutputDims) {
  ConvProblem p;
  p.h = 224;
  p.w = 224;
  p.r = p.s = 3;
  p.stride_h = p.stride_w = 2;
  p.pad_h = p.pad_w = 1;
  EXPECT_EQ(p.out_h(), 112);
  EXPECT_EQ(p.out_w(), 112);
}

TEST(ConvProblemTest, PointwiseDetection) {
  ConvProblem p;
  p.r = p.s = 1;
  EXPECT_TRUE(p.IsPointwise());
  p.stride_h = 2;
  EXPECT_FALSE(p.IsPointwise());
  p.stride_h = 1;
  p.pad_h = 1;
  EXPECT_FALSE(p.IsPointwise());
}

TEST(ConvKernelTest, RejectsMisalignedChannels) {
  ConvProblem p;
  p.n = 1;
  p.h = p.w = 8;
  p.c = 46;  // not divisible by declared alignment 8
  p.k = 32;
  p.r = p.s = 3;
  Conv2dKernel kernel(p, SmallConfig(), EpilogueSpec::Linear());
  EXPECT_FALSE(kernel.CanImplement(kT4).ok());
}

TEST(ConvTimingTest, PaddedChannelsFasterThanUnaligned) {
  // The Table 3 mechanism: same conv, alignment 2 vs alignment 8.
  ConvProblem unaligned;
  unaligned.n = 32;
  unaligned.h = 20;
  unaligned.w = 26;
  unaligned.c = 46;
  unaligned.k = 32;
  unaligned.r = unaligned.s = 3;
  unaligned.pad_h = unaligned.pad_w = 1;
  ConvProblem padded = unaligned;
  padded.c = 48;

  KernelConfig cu = SmallConfig();
  cu.align_a = cu.align_b = 2;
  KernelConfig cp = SmallConfig();

  Conv2dKernel ku(unaligned, cu, EpilogueSpec::Linear());
  Conv2dKernel kp(padded, cp, EpilogueSpec::Linear());
  EXPECT_GT(ku.EstimateUs(kT4), 1.3 * kp.EstimateUs(kT4));
}

TEST(ConvTimingTest, StridedConvCheaperThanDense) {
  ConvProblem dense;
  dense.n = 32;
  dense.h = dense.w = 56;
  dense.c = dense.k = 64;
  dense.r = dense.s = 3;
  dense.pad_h = dense.pad_w = 1;
  ConvProblem strided = dense;
  strided.stride_h = strided.stride_w = 2;

  KernelConfig cfg = SmallConfig();
  Conv2dKernel kd(dense, cfg, EpilogueSpec::Linear());
  Conv2dKernel ks(strided, cfg, EpilogueSpec::Linear());
  EXPECT_GT(kd.EstimateUs(kT4), ks.EstimateUs(kT4));
}

TEST(ConvTimingTest, NameConvention) {
  Conv2dKernel k(ConvProblem{}, SmallConfig(), EpilogueSpec::Linear());
  EXPECT_EQ(k.Name(),
            "cutlite_tensorop_h1688conv2d_fprop_64x16_16x2_tn_align8");
}

}  // namespace
}  // namespace cutlite
}  // namespace bolt
