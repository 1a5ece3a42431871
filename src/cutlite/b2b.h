// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Persistent kernels: back-to-back GEMM / Conv fusion (Section 3.1.1).
//
// Two sequential GEMMs
//     D0 = epilogue0(alpha0 * A0 x W0^T + beta0 * C0)
//     D1 = epilogue1(alpha1 * D0 x W1^T + beta1 * C1)
// are fused into a single kernel when the *threadblock residence* property
// holds: every output threadblock tile of GEMM0 must be fully consumed by
// the same threadblock in GEMM1 without a round trip to global memory.
// This requires ThreadBlock_N = GEMM_N for each layer (and M tiles match).
//
// Two residence strategies are implemented, as in the paper:
//  * RF-resident:  Warp_N = ThreadBlock_N = GEMM_N for each layer; the
//    intermediate accumulator stays in the register file (warp fragment
//    iterator). Higher RF pressure, zero extra traffic.
//  * Shared-memory-resident: relaxes the warp constraint; the intermediate
//    tile is staged through shared memory (smem fragment iterator), with a
//    conflict-free layout, costing one RF->smem->RF round trip.
//
// The same machinery fuses a Conv2D with a following 1x1/stride-1/pad-0
// Conv2D (threadblock residence requires ThreadBlock_N = output channels).

#pragma once

#include <vector>

#include "common/status.h"
#include "cutlite/conv.h"
#include "cutlite/gemm.h"

namespace bolt {
namespace cutlite {

enum class ResidenceKind { kRegisterFile, kSharedMemory };

inline const char* ResidenceName(ResidenceKind k) {
  return k == ResidenceKind::kRegisterFile ? "rf" : "smem";
}

/// One stage of a persistent chain.
struct B2bStage {
  GemmCoord problem;
  KernelConfig config;
  EpilogueSpec epilogue;
};

/// Residence feasibility checks (exposed for tests and the fusion pass).
///
/// Threadblock residence for GEMM: ThreadBlock_N == GEMM_N for every stage,
/// equal M, and chained K (K[i+1] == N[i]).
Status CheckThreadblockResidenceGemm(const std::vector<B2bStage>& stages);

/// RF residence additionally needs Warp_N == ThreadBlock_N per stage.
Status CheckRfResidenceGemm(const std::vector<B2bStage>& stages,
                            const DeviceSpec& spec);

/// A persistent kernel fusing two or more back-to-back GEMMs.
class B2bGemmKernel {
 public:
  /// Creates the kernel after validating residence. `residence` selects
  /// the RF or shared-memory strategy; RF additionally constrains warps.
  static Result<B2bGemmKernel> Create(std::vector<B2bStage> stages,
                                      ResidenceKind residence,
                                      const DeviceSpec& spec);

  const std::vector<B2bStage>& stages() const { return stages_; }
  ResidenceKind residence() const { return residence_; }

  /// Analytical latency of the fused kernel.
  KernelTiming Estimate(const DeviceSpec& spec) const;
  double EstimateUs(const DeviceSpec& spec) const {
    return Estimate(spec).total_us;
  }

  /// Latency of running the stages as separate (epilogue-fused) kernels —
  /// the paper's "w/o persistent fusion" baseline.
  double EstimateUnfusedUs(const DeviceSpec& spec) const;

  std::string Name() const;

 private:
  B2bGemmKernel(std::vector<B2bStage> stages, ResidenceKind residence)
      : stages_(std::move(stages)), residence_(residence) {}

  std::vector<B2bStage> stages_;
  ResidenceKind residence_;
};

/// One stage of a persistent Conv chain.
struct B2bConvStage {
  ConvProblem problem;
  KernelConfig config;
  EpilogueSpec epilogue;
};

/// Threadblock residence for Conv: ThreadBlock_N == output channels per
/// stage; stages after the first must be 1x1 / stride 1 / pad 0 and channel
/// counts must chain.
Status CheckThreadblockResidenceConv(const std::vector<B2bConvStage>& stages);

/// A persistent kernel fusing a Conv2D with following pointwise Conv2Ds.
class B2bConvKernel {
 public:
  static Result<B2bConvKernel> Create(std::vector<B2bConvStage> stages,
                                      ResidenceKind residence,
                                      const DeviceSpec& spec);

  const std::vector<B2bConvStage>& stages() const { return stages_; }
  ResidenceKind residence() const { return residence_; }

  KernelTiming Estimate(const DeviceSpec& spec) const;
  double EstimateUs(const DeviceSpec& spec) const {
    return Estimate(spec).total_us;
  }
  double EstimateUnfusedUs(const DeviceSpec& spec) const;

  std::string Name() const;

 private:
  B2bConvKernel(std::vector<B2bConvStage> stages, ResidenceKind residence)
      : stages_(std::move(stages)), residence_(residence) {}

  std::vector<B2bConvStage> stages_;
  ResidenceKind residence_;
};

/// Picks the better residence strategy (or reports both invalid) for a
/// two-stage GEMM chain; used by the fusion pass and the ablation bench.
struct ResidenceChoice {
  bool rf_valid = false;
  bool smem_valid = false;
  double rf_us = 0.0;
  double smem_us = 0.0;
  ResidenceKind best = ResidenceKind::kRegisterFile;
};
ResidenceChoice ChooseResidenceGemm(const std::vector<B2bStage>& stages,
                                    const DeviceSpec& spec);

}  // namespace cutlite
}  // namespace bolt
