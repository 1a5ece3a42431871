// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Tensor-core GEMM kernel (cutlite device-level API, mirroring
// cutlass::gemm::device::Gemm).
//
// Semantics: D = Epilogue(alpha * A x W^T + beta * C, bias), with
//   A: [M, K] row-major FP16 activations
//   W: [N, K] row-major FP16 weights (i.e. B column-major — the "tn" GEMM)
//   C: optional [M, N] source operand, bias: optional [N]
//
// Two execution paths:
//  * Run(): the functional model of the tiled CUTLASS traversal, with
//    FP16 storage / FP32 accumulate, split-K slices reduced in FP32 and
//    the column-reduction epilogue.  Tests and benches call it; the Bolt
//    engine executes on the host kernels (ir/interpreter.h KernelStep).
//  * EstimateUs(): analytical latency on a DeviceSpec, used by the
//    profiler, the engine's timing mode, and every bench.

#pragma once

#include <optional>

#include "common/status.h"
#include "cutlite/config.h"
#include "cutlite/epilogue.h"
#include "cutlite/shapes.h"
#include "device/spec.h"
#include "device/timing.h"
#include "ir/tensor.h"

namespace bolt {
namespace cutlite {

/// Inputs to a GEMM invocation. Non-owning pointers; null means absent.
struct GemmArguments {
  const Tensor* a = nullptr;     // [M, K]
  const Tensor* w = nullptr;     // [N, K]
  const Tensor* c = nullptr;     // [M, N] source (residual), optional
  const Tensor* bias = nullptr;  // [N], optional
  /// Output slot for the partial-reduction epilogue (CUTLASS's
  /// EpilogueWithReduction): per-column sums of D, shape [N]. Required
  /// when the epilogue sets column_reduction.
  Tensor* column_sums = nullptr;
};

/// Detailed timing breakdown (microseconds) from the analytical model.
struct KernelTiming {
  double mainloop_us = 0.0;
  double epilogue_us = 0.0;
  double launch_us = 0.0;
  double total_us = 0.0;
  // Model internals, exposed for tests and ablation benches.
  double compute_us = 0.0;
  double memory_us = 0.0;
  double dram_bytes = 0.0;
  int ctas_per_sm = 0;
  int64_t cta_count = 0;
  double utilization = 0.0;  // fraction of tensor-core peak in the mainloop
};

class GemmKernel {
 public:
  GemmKernel(GemmCoord problem, KernelConfig config, EpilogueSpec epilogue)
      : problem_(problem), config_(config), epilogue_(epilogue) {}

  const GemmCoord& problem() const { return problem_; }
  const KernelConfig& config() const { return config_; }
  const EpilogueSpec& epilogue() const { return epilogue_; }

  /// Structural + problem-specific validity (threadblock residence checks
  /// for fusion live in b2b.h; this checks alignment feasibility etc.).
  Status CanImplement(const DeviceSpec& spec) const;

  /// Functional execution of the tiled traversal (see the file comment).
  Result<Tensor> Run(const GemmArguments& args) const;

  /// Analytical latency.
  KernelTiming Estimate(const DeviceSpec& spec) const;
  double EstimateUs(const DeviceSpec& spec) const {
    return Estimate(spec).total_us;
  }

  std::string Name() const { return config_.Name("gemm"); }

 private:
  GemmCoord problem_;
  KernelConfig config_;
  EpilogueSpec epilogue_;
};

/// Mainloop-only timing shared with the B2B (persistent) kernels: cost of
/// the tiled tensor-core main loop for one GEMM, excluding launch/epilogue.
/// `read_a_from_global` is false for the second GEMM of a persistent pair
/// (its input activation stays resident on chip).
/// `resource_override`, when non-null, replaces the per-CTA resource
/// footprint used for occupancy (persistent B2B kernels carry the combined
/// footprint of all their stages).
KernelTiming EstimateGemmMainloop(const DeviceSpec& spec,
                                  const GemmCoord& problem,
                                  const KernelConfig& config,
                                  const EpilogueSpec& epilogue,
                                  bool reads_c,
                                  bool read_a_from_global = true,
                                  bool write_d_to_global = true,
                                  const CtaResources* resource_override =
                                      nullptr);

/// Exhaustive best-config search under the same timing model: the stand-in
/// for hardware-native vendor performance (cuBLAS) in Fig. 1.
struct VendorPeakResult {
  KernelConfig config;
  double us = 0.0;
  double tflops = 0.0;
};
VendorPeakResult VendorPeakGemm(const DeviceSpec& spec,
                                const GemmCoord& problem);

}  // namespace cutlite
}  // namespace bolt
