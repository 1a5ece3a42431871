// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Constants of the project's portable expf (ExpPortable, activations.h).
//
// GELU and Sigmoid are evaluated through one exp written only in IEEE
// basic operations (add, sub, mul, compare, exponent-bit assembly), so the
// scalar chain and the AVX2 fused epilogue (cpukernels/pack_simd.cc) can
// run the same operations in the same order and agree bit for bit.  Both
// sides read their constants from here.  This header holds constants only
// — no inline function — so the ISA-flagged pack_simd.cc may include it
// without the ODR hazard described in cpukernels/micro.h.
//
// Algorithm, for float x:
//   1. Clamp x to [kExpLo, kExpHi].  At the low bound exp is still a
//      normal float (n = -126).  Above 88.376, n reaches 128, whose
//      exponent bits (255) spell +inf, so the result overflows to +inf a
//      little before the true threshold (88.72) and never wraps: the clamp
//      at 89 keeps n <= 128.  NaN is passed through unchanged by both
//      implementations.
//   2. t = x * kExpLog2e + kExpShift.  Adding 1.5 * 2^23 rounds
//      x * log2(e) to the nearest integer n in t's low mantissa bits, and
//      n = bits(t) - bits(kExpShift) needs no float-to-int conversion.
//   3. Two-constant Cody-Waite reduction: r = (x - n*kExpLn2Hi) - n*kExpLn2Lo,
//      |r| <= ln(2)/2.  n*kExpLn2Hi is exact (kExpLn2Hi has 9 significant
//      bits, |n| <= 128).
//   4. p = 1 + r*(c1 + r*(c2 + ... + r*c6)), a degree-6 Horner polynomial
//      (c1..c6 fitted to exp on [-ln2/2, ln2/2]; the fit's own relative
//      error is 2e-9, far below FP32 rounding).
//   5. exp(x) = p * 2^n, with 2^n assembled as bits (n + 127) << 23.

#pragma once

#include <cstdint>

namespace bolt {
namespace expconst {

inline constexpr float kExpLo = -87.0f;
inline constexpr float kExpHi = 89.0f;
inline constexpr float kExpLog2e = 1.44269504088896341f;
inline constexpr float kExpShift = 12582912.0f;  // 1.5 * 2^23
inline constexpr uint32_t kExpShiftBits = 0x4B400000u;
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
inline constexpr float kExpC1 = 1.000000000e+00f;
inline constexpr float kExpC2 = 4.999999404e-01f;
inline constexpr float kExpC3 = 1.666643173e-01f;
inline constexpr float kExpC4 = 4.166800156e-02f;
inline constexpr float kExpC5 = 8.374155499e-03f;
inline constexpr float kExpC6 = 1.384365256e-03f;

/// GELU's tanh-form constants: inner = kGeluAlpha * (x + kGeluBeta * x^3).
inline constexpr float kGeluAlpha = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluBeta = 0.044715f;

}  // namespace expconst
}  // namespace bolt
