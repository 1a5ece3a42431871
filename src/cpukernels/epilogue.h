// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Fused epilogue applied inside the GEMM/Conv output micro-tile write-back
// (the CPU analogue of cutlite's epilogue functors): bias broadcast,
// activation chain, residual add, and FP16 store conversion happen while
// the output tile is still hot, instead of as separate full-tensor passes.
//
// Two numeric contracts are supported:
//
//  * cutlite mode (boundary_quantize = false):
//      D = Act(alpha * acc + beta * src + bias), quantized once on store —
//    exactly cutlite::ApplyEpilogueElement: the contract of the engine's
//    bolt.* kernels, which run here as interpreter steps.
//
//  * interpreter mode (boundary_quantize = true): each fused stage
//    quantizes to the tensor's storage precision, reproducing the
//    op-boundary semantics of the unfused reference chain
//      quantize(conv) -> quantize(+bias) -> quantize(act) -> quantize(+res)
//    so fused and unfused graph execution agree bit-for-bit.

#pragma once

#include <vector>

#include "common/activations.h"
#include "common/half.h"
#include "ir/tensor.h"

namespace bolt {
namespace cpukernels {

/// Declarative epilogue for one kernel launch.  Pointers are non-owning;
/// null means the stage is absent.  `residual` is indexed with the same
/// output index as D (layout-aware), `bias` with the output column.
struct Epilogue {
  float alpha = 1.0f;
  float beta = 0.0f;               // scales the residual in cutlite mode
  const float* bias = nullptr;     // per-output-column broadcast [N]
  const float* residual = nullptr; // element-wise source operand
  std::vector<ActivationKind> acts;
  DType output_dtype = DType::kFloat32;
  bool boundary_quantize = false;  // interpreter-mode quantization

  bool quantizes() const { return output_dtype == DType::kFloat16; }
};

/// Applies the epilogue to one accumulator element.  `src` is the residual
/// value (0 when absent), `b` the bias value for this column (0 when
/// absent).
inline float ApplyEpilogue(const Epilogue& e, float acc, float src,
                           float b) {
  const bool q = e.quantizes();
  if (e.boundary_quantize) {
    float v = q ? half_t::Quantize(acc) : acc;
    if (e.bias != nullptr) {
      v += b;
      if (q) v = half_t::Quantize(v);
    }
    for (ActivationKind a : e.acts) {
      v = ApplyActivation(a, v);
      if (q) v = half_t::Quantize(v);
    }
    if (e.residual != nullptr) {
      v += src;
      if (q) v = half_t::Quantize(v);
    }
    return v;
  }
  float v = e.alpha * acc;
  if (e.residual != nullptr || e.beta != 0.0f) v += e.beta * src;
  if (e.bias != nullptr) v += b;
  for (ActivationKind a : e.acts) v = ApplyActivation(a, v);
  return q ? half_t::Quantize(v) : v;
}

}  // namespace cpukernels
}  // namespace bolt
