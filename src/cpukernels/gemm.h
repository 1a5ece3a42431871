// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Cache-blocked packed GEMM with fused epilogue — the CPU fast path for
// dense layers, and for the engine's bolt.* GEMMs (the simulated GPU
// kernels' host execution).
//
// Semantics match refop::Dense / cutlite::GemmKernel:
//   D[M, N] = Epilogue(A[M, K] x W[N, K]^T)
// with A row-major activations and W row-major weights (the "tn" GEMM).
// Accumulation is FP32 in ascending-k order per element, so results are
// bit-identical to the naive reference loop for every blocking and thread
// count (see internal.h).

#pragma once

#include "common/thread_pool.h"
#include "cpukernels/config.h"
#include "cpukernels/epilogue.h"
#include "ir/tensor.h"

namespace bolt {
namespace cpukernels {

/// Blocked GEMM over tensors: `a` is [M, K], `w` is [N, K]; returns a
/// row-major [M, N] tensor of epi.output_dtype.  A null `pool` runs
/// serially; pass &ProcessPool() (or any pool) to parallelize over row
/// panels.  Each launch is counted in the metrics registry and, when
/// tracing is on, emitted as a span on the CPU-execution lane.
Tensor Gemm(const Tensor& a, const Tensor& w, const Epilogue& epi,
            const BlockConfig& cfg = {}, ThreadPool* pool = nullptr);

/// Raw-pointer variant used by the conv kernels:
/// writes into `d` (size m*n, row-major).
void GemmRaw(int64_t m, int64_t n, int64_t k, const float* a,
             const float* w, float* d, const Epilogue& epi,
             const BlockConfig& cfg, ThreadPool* pool);

}  // namespace cpukernels
}  // namespace bolt
