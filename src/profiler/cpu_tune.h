// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// CPU blocking autotuner: candidate enumeration and wall-clock measurement
// for the packed CPU kernels (cpukernels/).
//
// This is the CPU instantiation of Bolt's hardware-native profiling thesis
// (PAPER.md §4): the kernel library already knows which blockings are
// architecture-plausible — kc sized to the L1, mc to the L2, nc to the L3,
// everything a multiple of the kMR x kNR micro-tile — so the profiler only
// enumerates that small hardware-derived set and measures each candidate
// on the real kernels, instead of searching a black-box space the way
// AutoTVM/Ansor do.  The parallelization scheme (loop-level vs batch-level,
// config.h) rides along as one more template parameter.
//
// Measurement is real wall-clock time on this machine, unlike the
// simulated device model behind ProfileGemm/ProfileConv.  Candidates are
// measured one at a time — each launch may itself fan out over the shared
// process pool, exactly as it will at execution time — so timings reflect
// the deployment configuration.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "cpukernels/config.h"
#include "cpukernels/conv.h"
#include "cpukernels/cpuinfo.h"
#include "ir/tensor.h"

namespace bolt {

/// A representative GEMM workload: D[m, n] = A[m, k] x W[n, k]^T.
struct CpuGemmWorkload {
  int64_t m = 0, n = 0, k = 0;

  std::string ToString() const { return StrCat(m, "x", n, "x", k); }
};

/// A representative conv workload (implicit GEMM, see cpukernels/conv.h).
struct CpuConvWorkload {
  int64_t batch = 1, h = 0, w = 0, c = 0;  // input
  int64_t oc = 0, kh = 1, kw = 1;          // filter
  cpukernels::ConvParams params;
  Layout layout = Layout::kNHWC;

  /// The implicit-GEMM problem dims (registry key for tuned blocks).
  cpukernels::ConvGemmShape GemmShape() const;

  std::string ToString() const {
    return StrCat(batch, "x", h, "x", w, "x", c, "_oc", oc, "_f", kh, "x",
                  kw, "_s", params.stride_h, "x", params.stride_w, "_p",
                  params.pad_h, "x", params.pad_w, "_d", params.dilation_h,
                  "x", params.dilation_w, "_", LayoutName(layout));
  }
};

/// Enumerates the architecture-plausible BlockConfigs for a (m, n, k)
/// problem on a machine with the given cache hierarchy:
///
///   kc  — packed A + B strips ((kMR + kNR) * kc floats) stay L1-resident
///   mc  — the packed A panel (mc * kc floats) stays in half the L2
///   nc  — the packed B panel (kc * nc floats) stays in half the L3;
///         full-N (no jc loop) is always tried when it fits
///
/// The host default block (BlockConfig{}, also every executor's fallback
/// on a registry miss) is always candidate #0, so measured selection can
/// never regress the default by more than measurement noise.  With `num_threads > 1` every blocking is
/// emitted in both parallelization schemes.
///
/// The micro-kernel ISA is one more profiled axis: when `isa` resolves to
/// AVX2 (ResolveCpuIsa — so only when the host supports it and
/// BOLT_CPU_ISA permits it), every blocking is additionally emitted with
/// an explicit kScalar variant, because on barrier- or bandwidth-bound
/// shapes the scalar kernel can genuinely win.  Blockings carry
/// isa=kAuto for the default-mode variant, so a persisted winner re-reads
/// the process default at execution time; the arch token's ISA suffix
/// (CpuArchToken) keeps such records from crossing between scalar-mode
/// and AVX2-mode processes.  Every returned config passes
/// BlockConfig::Validate(); enumeration order is deterministic.
std::vector<cpukernels::BlockConfig> EnumerateCpuBlockCandidates(
    const cpukernels::CpuCacheInfo& cache, int64_t m, int64_t n, int64_t k,
    int num_threads, cpukernels::CpuIsa isa = cpukernels::CpuIsa::kAuto);

/// Wall-clock measurement engine for GEMM candidates.  Operand data is
/// generated once (deterministic seeds) and reused across candidates.
class CpuGemmMeasurer {
 public:
  explicit CpuGemmMeasurer(const CpuGemmWorkload& workload);

  /// Runs the real packed kernel `warmup_runs + measure_runs` times with
  /// the given blocking and returns the best (minimum) measured wall
  /// microseconds.  `pool` should be the pool execution will use.
  double MeasureUs(const cpukernels::BlockConfig& block, ThreadPool* pool,
                   int warmup_runs, int measure_runs);

 private:
  CpuGemmWorkload workload_;
  std::vector<float> a_, w_, d_;
};

/// Wall-clock measurement engine for implicit-GEMM conv candidates.
class CpuConvMeasurer {
 public:
  explicit CpuConvMeasurer(const CpuConvWorkload& workload);

  double MeasureUs(const cpukernels::BlockConfig& block, ThreadPool* pool,
                   int warmup_runs, int measure_runs);

 private:
  CpuConvWorkload workload_;
  Tensor x_, w_;
};

}  // namespace bolt
