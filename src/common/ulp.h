// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// ULP (units in the last place) distance between floating-point values.
//
// The SIMD tier of the CPU backend's two-tier numeric contract
// (docs/CPU_BACKEND.md) promises *ULP-bounded* agreement with the
// bit-exact reference rather than bit identity: FMA rounds each
// multiply-add once instead of twice, so results drift by a few
// representable values.  An absolute-epsilon comparison cannot express
// that bound — it is far too loose for values near zero and too tight for
// large magnitudes — so the differential harness and the throughput bench
// compare in ULPs on the value's own storage grid (FP32, or the FP16 grid
// for tensors that quantize on store), with a small absolute escape hatch
// for the zero neighborhood.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/half.h"

namespace bolt {

/// Maps a float onto a signed integer line where adjacent representable
/// floats differ by exactly 1 (lexicographic / sign-magnitude ordering,
/// so +0 and -0 coincide at the origin).
inline int64_t Float32Ordered(float f) {
  int32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits >= 0 ? static_cast<int64_t>(bits)
                   : -static_cast<int64_t>(bits & 0x7FFFFFFF);
}

/// ULP distance on the FP32 grid.  NaN on either side compares as a huge
/// distance (the harness treats NaN disagreement as failure outright).
inline int64_t Float32UlpDiff(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : INT64_MAX;
  }
  const int64_t d = Float32Ordered(a) - Float32Ordered(b);
  return d < 0 ? -d : d;
}

/// Same ordering on the FP16 grid: both values are rounded to binary16
/// and compared on the 16-bit sign-magnitude line.  For tensors whose
/// storage dtype is FP16 this is the honest grid — two floats one FP32
/// ULP apart either collapse to the same half or land one half-ULP apart.
inline int64_t Float16UlpDiff(float a, float b) {
  const half_t ha(a), hb(b);
  if (ha.is_nan() || hb.is_nan()) {
    return ha.is_nan() && hb.is_nan() ? 0 : INT64_MAX;
  }
  auto ordered = [](uint16_t bits) -> int64_t {
    return (bits & 0x8000u) ? -static_cast<int64_t>(bits & 0x7FFFu)
                            : static_cast<int64_t>(bits);
  };
  const int64_t d = ordered(ha.bits()) - ordered(hb.bits());
  return d < 0 ? -d : d;
}

/// The documented tolerance of the SIMD tier (docs/CPU_BACKEND.md): a
/// fast-path result agrees with the bit-exact reference within this many
/// ULPs on its storage grid, after the absolute escape below absorbs the
/// zero neighborhood (where an FMA-induced sign flip of a ~1e-20 residue
/// would otherwise score as millions of ULPs).  The differential harness
/// (tests/testing/diff_harness.h) and the throughput bench both enforce
/// these numbers; measured drift on randomized tuples is far below them
/// (low single digits for FP32), the slack is headroom for long
/// accumulation chains.
inline constexpr int64_t kSimdMaxUlpsFloat32 = 32;
inline constexpr int64_t kSimdMaxUlpsFloat16 = 4;
inline constexpr float kSimdUlpAbsEscape = 1e-5f;

/// Magnitude-aware bound for an FP32 GEMM element computed by two tiers.
/// Any accumulation order of a length-k FP32 dot product, with or
/// without FMA, lies within gamma_k * sum_p |a_p| |b_p| of the exact value
/// (gamma_k = k u / (1 - k u), u = 2^-24; Higham, "Accuracy and Stability
/// of Numerical Algorithms", eq. 3.5), so two tiers differ by at most
/// twice that.  Unlike the per-element ULP bound above it holds at any K
/// and near cancellation, where the result is tiny next to the terms.
/// `abs_dot` is sum_p |a_p| |b_p| for the element (the alpha/beta/bias
/// epilogue is not included).
inline double Fp32GemmTierBound(int64_t k, double abs_dot) {
  const double ku = static_cast<double>(k) * 0x1p-24;
  return 2.0 * ku / (1.0 - ku) * abs_dot;
}

/// The whole-model bound (docs/CPU_BACKEND.md, "Whole models"): an
/// Engine::Run output agrees with RefExecutor on the input graph within
/// this many ULPs *of the output's largest reference magnitude*, on the
/// output's storage grid, at every ISA rung.  The engine rewrites the
/// arithmetic (BatchNorm folded into conv weights, fused epilogues that
/// round once instead of per op), so no rung is bit-identical to the
/// per-op reference at this level; measuring against the output's scale
/// keeps those rewrites from scoring as huge per-element distances near
/// zero.  Measured on the zoo models at 32x32: at most 3 (FP16) and 27
/// (FP32 ResNet-50) scale ULPs, the same at scalar and AVX-512.
inline constexpr int64_t kModelMaxScaleUlpsFloat16 = 8;
inline constexpr int64_t kModelMaxScaleUlpsFloat32 = 64;

}  // namespace bolt
