// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Implicit-GEMM Conv2D (cutlite analogue of cutlass::conv::device::
// ImplicitGemmConvolution, NHWC activations, fprop).
//
// The convolution is mapped onto the tensor-core GEMM hierarchy as
//   M = N * P * Q   (output pixels)
//   N = K           (output channels)
//   K = R * S * C   (filter taps x input channels)
// which is why every GEMM-level concept in the paper (threadblock
// residence, alignment, tile search) carries over to convolutions.

#pragma once

#include "common/status.h"
#include "cutlite/config.h"
#include "cutlite/epilogue.h"
#include "cutlite/gemm.h"
#include "device/spec.h"
#include "ir/graph.h"
#include "ir/tensor.h"

namespace bolt {
namespace cutlite {

/// Conv2D problem description (NHWC).
struct ConvProblem {
  int64_t n = 1;            // batch
  int64_t h = 0, w = 0;     // input spatial
  int64_t c = 0;            // input channels
  int64_t k = 0;            // output channels
  int64_t r = 3, s = 3;     // filter
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;

  int64_t out_h() const { return (h + 2 * pad_h - r) / stride_h + 1; }
  int64_t out_w() const { return (w + 2 * pad_w - s) / stride_w + 1; }

  /// The implicit-GEMM view of this convolution.
  GemmCoord AsGemm() const {
    return GemmCoord(n * out_h() * out_w(), k, r * s * c);
  }
  double flops() const { return AsGemm().flops(); }
  int64_t input_bytes() const { return n * h * w * c * 2; }
  int64_t weight_bytes() const { return k * r * s * c * 2; }
  int64_t output_bytes() const { return n * out_h() * out_w() * k * 2; }

  /// True for a 1x1, stride-1, pad-0 convolution (the only legal second
  /// operator of a persistent Conv fusion; Section 3.1.1).
  bool IsPointwise() const {
    return r == 1 && s == 1 && stride_h == 1 && stride_w == 1 &&
           pad_h == 0 && pad_w == 0;
  }

  std::string ToString() const {
    return StrCat("n", n, "_", h, "x", w, "x", c, "_k", k, "_", r, "x", s,
                  "_s", stride_h, s == r ? "" : "?", "_p", pad_h);
  }
};

class Conv2dKernel {
 public:
  Conv2dKernel(ConvProblem problem, KernelConfig config,
               EpilogueSpec epilogue)
      : problem_(problem), config_(config), epilogue_(epilogue) {}

  const ConvProblem& problem() const { return problem_; }
  const KernelConfig& config() const { return config_; }
  const EpilogueSpec& epilogue() const { return epilogue_; }

  Status CanImplement(const DeviceSpec& spec) const;

  KernelTiming Estimate(const DeviceSpec& spec) const;
  double EstimateUs(const DeviceSpec& spec) const {
    return Estimate(spec).total_us;
  }

  std::string Name() const { return config_.Name("conv2d_fprop"); }

 private:
  ConvProblem problem_;
  KernelConfig config_;
  EpilogueSpec epilogue_;
};

/// Mainloop timing for one conv expressed through the implicit GEMM, with
/// conv-specific DRAM traffic (activations enjoy R*S-fold reuse through
/// L2/smem instead of full im2col materialization).
KernelTiming EstimateConvMainloop(const DeviceSpec& spec,
                                  const ConvProblem& problem,
                                  const KernelConfig& config,
                                  const EpilogueSpec& epilogue,
                                  bool read_input_from_global = true,
                                  bool write_output_to_global = true,
                                  const CtaResources* resource_override =
                                      nullptr);

}  // namespace cutlite
}  // namespace bolt
