// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Shared differential-testing harness for the CPU kernel stack.
//
// The CPU backend promises a *two-tier* numeric contract
// (docs/CPU_BACKEND.md): the scalar micro-kernel tier is bit-identical to
// the reference interpreter, while the runtime-dispatched SIMD tier
// (AVX2+FMA) is ULP-bounded against it (common/ulp.h).  Every test that
// exercises that contract — test_cpukernels, test_cpu_autotune,
// test_simd_kernels — draws its randomized (shape, layout, epilogue,
// BlockConfig) tuples from the seeded generators here and funnels its
// comparisons through CheckDiff(), which
//
//   * picks the tier from the *resolved* ISA of the block under test
//     (ToleranceFor), so the same tuple stream asserts bit-exactness in a
//     scalar process and the documented ULP bound in an AVX2 one;
//   * accounts every comparison per op into the process-wide metrics
//     registry (`cpu.diff.<op>.checks` / `.failures` counters and a
//     `cpu.diff.<op>.ulp` histogram) and an in-harness max-ULP tracker;
//   * returns a gtest AssertionResult carrying the offending distance, so
//     callers write EXPECT_TRUE(CheckDiff(...)) inside a SCOPED_TRACE that
//     logs the seed and tuple.
//
// When $BOLT_DIFF_SUMMARY names a file, a gtest environment registered by
// the harness merges a JSON summary of the per-op ULP accounting into it
// at process teardown — CI uploads it as the diff-harness artifact.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "cpukernels/config.h"
#include "cpukernels/cpuinfo.h"
#include "ir/graph.h"
#include "ir/tensor.h"

namespace bolt {
namespace difftest {

/// Seeded random tensor: normal(0, 0.5) values quantized to the storage
/// dtype.  The same (desc, seed) pair reproduces bit-identically across
/// processes — failures log the seed, reruns replay it.
Tensor RandomTensor(TensorDesc desc, uint64_t seed);

/// Draws a BlockConfig from a space that deliberately includes invalid
/// values (mc < kMR, nc not a multiple of kNR, non-positive dims) so the
/// kernels' clamping is part of the tested surface.  The prefetch axis is
/// always drawn (it may never change numerics).  With `isa_axis` the draw
/// also covers the ISA knob {kAuto, kScalar, kAvx2, kAvx512}; a SIMD
/// request degrades down the ladder on hosts without the tier, which is
/// exactly the production resolution path and therefore fair game.
cpukernels::BlockConfig RandomBlock(Rng& rng, bool isa_axis = false);

/// Draws an activation layout for randomized conv tuples — an always-drawn
/// axis like prefetch: every tuple pins one of NCHW / NHWC / blocked
/// NCHWc with equal probability.  NCHWc requires C and OC divisible by
/// kNCHWcBlock; an unaligned draw degrades to NCHW, which is exactly the
/// production eligibility rule and therefore fair game.
Layout RandomConvLayout(Rng& rng, int64_t c, int64_t oc);

/// The epilogue activations the randomized tuples cycle through.
extern const std::vector<ActivationKind> kActivations;

/// One tier of the numeric contract: max_ulps == 0 means the bit-exact
/// tier (enforced as MaxAbsDiff == 0, no escape hatch).
struct Tolerance {
  int64_t max_ulps = 0;
  float abs_escape = 0.0f;
  bool exact() const { return max_ulps == 0; }
};

/// Tier selection: a *resolved* ISA (never kAuto — pass the result of
/// ResolveCpuIsa) plus the output storage dtype.  Scalar resolves to the
/// exact tier; AVX2 and AVX-512 share the documented SIMD bound on the
/// dtype's own grid (their pack/epilogue paths are bit-identical data
/// movement; only the micro-kernel FMA width differs).
Tolerance ToleranceFor(cpukernels::CpuIsa resolved, DType dtype);

/// Per-op accounting snapshot (also mirrored into the metrics registry).
struct OpStats {
  int64_t checks = 0;
  int64_t failures = 0;
  int64_t max_ulps = 0;      // worst distance seen, after the escape
  int64_t bound_ulps = 0;    // loosest non-exact bound this op was held to
};

/// Snapshot of the accounting for `op` ("gemm", "conv", ...).
OpStats StatsFor(const std::string& op);

/// Compares `got` against the reference `want` under `tol`, records the
/// observed ULP distance for `op`, and returns a rich AssertionResult.
/// Exact tier: requires MaxAbsDiff == 0 (bit identity).  Tolerance tier:
/// requires MaxUlpDiff(want, tol.abs_escape) <= tol.max_ulps on got's
/// storage grid.
::testing::AssertionResult CheckDiff(const std::string& op,
                                     const Tensor& got, const Tensor& want,
                                     const Tolerance& tol);

/// Whole-model check: an Engine::Run output `got` against RefExecutor's
/// `want` on the input graph.  Passes when every element is within
/// kModelMaxScaleUlps{Float16,Float32} (common/ulp.h) ULPs of want's
/// largest magnitude on got's storage grid; the bound is the same at
/// every rung.  Accounted under `op` like CheckDiff, in those scale ULPs.
::testing::AssertionResult CheckModelDiff(const std::string& op,
                                          const Tensor& got,
                                          const Tensor& want);

/// Writes the per-op accounting as JSON to `path`.
Status WriteDiffSummary(const std::string& path);

/// Like WriteDiffSummary, but folds in the per-op accounting already at
/// `path` (checks and failures add up, ULP maxima take the max), under a
/// lock on `path`.lock.  Called at gtest teardown when $BOLT_DIFF_SUMMARY
/// is set, so a preset that runs every test binary against one summary
/// path gets the whole suite's accounting.
Status MergeDiffSummary(const std::string& path);

}  // namespace difftest
}  // namespace bolt
