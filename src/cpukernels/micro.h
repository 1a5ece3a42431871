// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Micro-kernel dispatch surface shared between the portable driver code
// and the ISA-specific translation units.
//
// This header deliberately includes nothing but <cstdint>: micro_avx2.cc,
// micro_avx512.cc, and pack_simd.cc are compiled with -m<isa> flags, and
// any inline function they pull in from a shared header would be emitted
// with SIMD codegen in those TUs.  The linker keeps exactly one copy of an
// inline function, and if it keeps the SIMD-compiled one, "portable" code
// would execute SIMD instructions on hosts that lack them.  Keeping this
// boundary header free of inline code makes that ODR hazard structurally
// impossible.

#pragma once

#include <cstdint>

namespace bolt {
namespace cpukernels {
namespace internal {

/// Register micro-kernel signature: acc[kMR][nr] += Ap-strip x Bp-strip
/// over a kc slice.  `ap` is kMR-interleaved, `bp` nr-interleaved (nr is
/// fixed per kernel: 8 for scalar/AVX2, 16 for AVX-512); see internal.h
/// for the packing layouts.
using MicroKernelFn = void (*)(int64_t kcb, const float* ap,
                               const float* bp, float* acc);

/// AVX2+FMA micro-kernel (micro_avx2.cc, compiled with -mavx2 -mfma when
/// the toolchain supports it).  Hardcodes the 4x8 micro-tile: one __m256
/// accumulator row per kMR row, broadcast-FMA over the kc slice.  Uses
/// fused multiply-add, so results are NOT bit-identical to the scalar
/// kernel — callers must select it only through ResolveCpuIsa.
void MicroKernelAvx2(int64_t kcb, const float* ap, const float* bp,
                     float* acc);

/// True when MicroKernelAvx2 was actually built with AVX2+FMA codegen
/// (false on non-x86 targets or toolchains without the flags, where the
/// symbol is a scalar stub that the ISA probe never selects).
bool Avx2MicroKernelAvailable();

/// AVX-512 micro-kernel (micro_avx512.cc, compiled with -mavx512f
/// -mavx512vl when the toolchain supports them).  Hardcodes a 4x16
/// micro-tile: one __m512 accumulator row per kMR row, broadcast-FMA over
/// the kc slice in ascending-k order — the same ULP-bounded tier as AVX2.
/// Only selected through ResolveCpuIsa behind HostSupportsAvx512().
void MicroKernelAvx512(int64_t kcb, const float* ap, const float* bp,
                       float* acc);

/// True when MicroKernelAvx512 was built with real AVX-512 codegen (false
/// where it is a scalar stub the ISA probe never selects).
bool Avx512MicroKernelAvailable();

// ---------------------------------------------------------------------
// Vectorized packing + fused-epilogue kernels (pack_simd.cc, compiled
// with -mavx2 -mf16c and *without* FMA: every operation is a plain IEEE
// load/store/add/mul/min/max/div or F16C convert, so these produce
// bit-identical bytes to the scalar packing loops and the scalar
// ApplyEpilogue chain.  They accelerate data movement for BOTH SIMD
// micro-kernel tiers; the scalar ISA tier never calls them.
// ---------------------------------------------------------------------

/// True when pack_simd.cc was built with AVX2+F16C codegen.  Callers must
/// additionally hold a resolved SIMD ISA (which implies host AVX2).
bool SimdPackAvailable();

/// Packs the B panel exactly like internal::PackB (same layout, same
/// zero-padding) using 8x8 vector transposes with masked k tails.
/// `nr` is the strip width (8 or 16); when `prefetch` is set the source
/// rows are software-prefetched one cache line ahead.
void PackBPanelSimd(const float* w, int64_t k, int64_t n, int64_t j0,
                    int64_t ncb, int64_t p0, int64_t kcb, int64_t nr,
                    bool prefetch, float* dst);

/// Packs one kMR-row run into the kMR-interleaved A-panel layout:
/// dst[t*4 + r] = rows[r][t*stride] for t in [0, len).  A null rows[r]
/// zero-fills that row (the panel/padding remainder contract).  stride==1
/// uses vector loads + a 4x8 transpose; larger strides use AVX2 gathers.
void PackA4RunSimd(const float* const rows[4], int64_t len, int64_t stride,
                   float* dst);

// Activation opcodes for EpilogueRowSimd.  pack_simd.cc cannot include
// common/activations.h (ODR/ISA hazard above), so the vectorizable subset
// is mirrored here; internal.h translates ActivationKind to these and
// falls back to the scalar epilogue for anything unmappable (Softplus,
// which needs log1p).  GELU and Sigmoid mirror ExpPortable's operations
// in order (constants in common/exp_constants.h).
inline constexpr int kEpiActIdentity = 0;
inline constexpr int kEpiActRelu = 1;
inline constexpr int kEpiActHardswish = 2;
inline constexpr int kEpiActGelu = 3;
inline constexpr int kEpiActSigmoid = 4;

/// Applies the fused epilogue to one contiguous output row of `count`
/// elements: acc is the FP32 accumulator row, out the destination row,
/// res the residual row (null when absent), bias the per-column bias
/// slice (null when absent).  Mirrors ApplyEpilogue (epilogue.h) stage
/// for stage in both boundary_quantize orders; `quantize` selects the
/// FP16 round-trip after the stages boundary mode quantizes after.
/// Bit-identical to the scalar chain for the supported activation set.
void EpilogueRowSimd(const float* acc, float* out, const float* res,
                     const float* bias, int64_t count, float alpha,
                     float beta, const int* acts, int nacts,
                     bool boundary_quantize, bool quantize);

}  // namespace internal
}  // namespace cpukernels
}  // namespace bolt
