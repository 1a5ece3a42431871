// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Scalar activation functions shared by the graph interpreter, the cutlite
// epilogue functors, and the training substrate.  The set matches the
// activations studied in the paper (Section 3.3 / Table 4): ReLU, GELU,
// Hardswish, Softplus, plus Sigmoid and Identity for completeness.
//
// GELU and Sigmoid do not call libm: they go through ExpPortable, the
// project's own expf in IEEE basic operations (common/exp_constants.h).
// The AVX2 fused epilogue (cpukernels/pack_simd.cc) mirrors it lane for
// lane, so both activations stay bit-identical between the scalar chain
// and the vector epilogue on every host.  Softplus still uses
// std::log1p/std::exp and keeps the scalar epilogue; ActivationGrad is
// the libm tanh/exp form.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/exp_constants.h"
#include "common/status.h"

namespace bolt {

enum class ActivationKind {
  kIdentity = 0,
  kRelu,
  kGelu,
  kHardswish,
  kSoftplus,
  kSigmoid,
};

inline const char* ActivationName(ActivationKind k) {
  switch (k) {
    case ActivationKind::kIdentity:
      return "identity";
    case ActivationKind::kRelu:
      return "relu";
    case ActivationKind::kGelu:
      return "gelu";
    case ActivationKind::kHardswish:
      return "hardswish";
    case ActivationKind::kSoftplus:
      return "softplus";
    case ActivationKind::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

inline Result<ActivationKind> ActivationFromName(const std::string& name) {
  if (name == "identity") return ActivationKind::kIdentity;
  if (name == "relu") return ActivationKind::kRelu;
  if (name == "gelu") return ActivationKind::kGelu;
  if (name == "hardswish") return ActivationKind::kHardswish;
  if (name == "softplus") return ActivationKind::kSoftplus;
  if (name == "sigmoid") return ActivationKind::kSigmoid;
  return Status::InvalidArgument("unknown activation: " + name);
}

/// exp(x) in IEEE basic operations, the algorithm documented in
/// common/exp_constants.h.  Within 2 ULP of exp on [-87, 88]; below -87
/// it saturates at exp(-87) (about 1.6e-38), above 88.376 it is +inf, and
/// NaN maps to itself.  The float-to-bits step runs after the clamp and
/// needs no float-to-int conversion, so no input is undefined behaviour.
inline float ExpPortable(float x) {
  using namespace expconst;
  if (std::isnan(x)) return x;
  const float xc = x < kExpLo ? kExpLo : (x > kExpHi ? kExpHi : x);
  const float t = xc * kExpLog2e + kExpShift;
  const float n = t - kExpShift;
  const float r = (xc - n * kExpLn2Hi) - n * kExpLn2Lo;
  float p = kExpC6;
  p = p * r + kExpC5;
  p = p * r + kExpC4;
  p = p * r + kExpC3;
  p = p * r + kExpC2;
  p = p * r + kExpC1;
  p = p * r + 1.0f;
  uint32_t tbits;
  std::memcpy(&tbits, &t, sizeof(tbits));
  const uint32_t sbits = (tbits - kExpShiftBits + 127u) << 23;
  float scale;
  std::memcpy(&scale, &sbits, sizeof(scale));
  return p * scale;
}

/// Apply the activation to a scalar.
inline float ApplyActivation(ActivationKind k, float x) {
  switch (k) {
    case ActivationKind::kIdentity:
      return x;
    case ActivationKind::kRelu:
      return x > 0.0f ? x : 0.0f;
    case ActivationKind::kGelu: {
      // tanh approximation, as used by CUTLASS's GELU_taylor epilogue:
      // 0.5 x (1 + tanh(u)) == x / (1 + exp(-2u)), which has no
      // cancellation in the negative tail.  The exp term overflows only
      // for x below about -10.4, where the quotient is -0 anyway; returning
      // -0 there keeps x = -inf from computing -inf/inf = NaN.
      const float inner =
          expconst::kGeluAlpha * (x + expconst::kGeluBeta * x * x * x);
      const float e = ExpPortable(-2.0f * inner);
      return e == std::numeric_limits<float>::infinity() ? -0.0f
                                                         : x / (1.0f + e);
    }
    case ActivationKind::kHardswish: {
      const float r = x + 3.0f;
      const float clipped = r < 0.0f ? 0.0f : (r > 6.0f ? 6.0f : r);
      return x * clipped / 6.0f;
    }
    case ActivationKind::kSoftplus:
      // Numerically stable log(1 + exp(x)).
      return x > 20.0f ? x : std::log1p(std::exp(x));
    case ActivationKind::kSigmoid:
      return 1.0f / (1.0f + ExpPortable(-x));
  }
  return x;
}

/// Derivative d(activation)/dx, used by the training substrate.
inline float ActivationGrad(ActivationKind k, float x) {
  switch (k) {
    case ActivationKind::kIdentity:
      return 1.0f;
    case ActivationKind::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case ActivationKind::kGelu: {
      const float kAlpha = 0.7978845608028654f;
      const float x3 = x * x * x;
      const float inner = kAlpha * (x + 0.044715f * x3);
      const float t = std::tanh(inner);
      const float dinner = kAlpha * (1.0f + 3.0f * 0.044715f * x * x);
      return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
    }
    case ActivationKind::kHardswish: {
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return 1.0f;
      return (2.0f * x + 3.0f) / 6.0f;
    }
    case ActivationKind::kSoftplus:
      return 1.0f / (1.0f + std::exp(-x));
    case ActivationKind::kSigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-x));
      return s * (1.0f - s);
    }
  }
  return 1.0f;
}

/// Relative arithmetic cost of an activation in "multiply-add equivalents"
/// per element.  Used by the device timing model to cost epilogues: complex
/// activations (Softplus, GELU) take more SFU/ALU work than ReLU.
inline double ActivationCostMultiplier(ActivationKind k) {
  switch (k) {
    case ActivationKind::kIdentity:
      return 0.0;
    case ActivationKind::kRelu:
      return 1.0;
    case ActivationKind::kHardswish:
      return 3.0;
    case ActivationKind::kGelu:
      return 8.0;
    case ActivationKind::kSigmoid:
      return 6.0;
    case ActivationKind::kSoftplus:
      return 10.0;
  }
  return 1.0;
}

}  // namespace bolt
