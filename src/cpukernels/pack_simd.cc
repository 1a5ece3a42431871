// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Vectorized packing and fused-epilogue kernels.
//
// This TU is compiled with -mavx2 -mf16c (and deliberately *not* -mfma,
// plus -ffp-contract=off): every arithmetic operation here is a plain
// IEEE-754 load/store/add/mul/min/max/div or an F16C convert, none of
// which the compiler can legally contract into a fused multiply-add.
// That makes these kernels produce bit-identical results to the scalar
// packing loops (internal.h / gemm.cc / conv.cc) and the scalar
// ApplyEpilogue chain (epilogue.h) — the SIMD tiers' ULP budget is spent
// entirely in the micro-kernel's FMA, never in data movement.
//
// GELU and Sigmoid run ExpPortable (common/activations.h) in vector form:
// the same clamp, shift-rounding, Cody-Waite reduction, Horner polynomial
// and exponent-bit scale, operation for operation, so they too match the
// scalar chain bit for bit.
//
// Like micro_avx2.cc, this TU includes only micro.h and the constants-only
// common/exp_constants.h (the ODR/ISA hazard described in micro.h): no
// shared inline function may be emitted with AVX2 codegen.  The scalar
// fallback branch below keeps the symbols linkable on toolchains without
// AVX2/F16C; SimdPackAvailable() reports false there and the driver never
// dispatches to them.

#include "common/exp_constants.h"
#include "cpukernels/micro.h"

#if defined(__AVX2__) && defined(__F16C__)
#include <immintrin.h>
#else
// Without AVX2/F16C this TU is built at the baseline ISA, so the scalar
// stand-ins may share the activation code.
#include "common/activations.h"
#endif

namespace bolt {
namespace cpukernels {
namespace internal {

namespace {

inline int64_t Min64(int64_t a, int64_t b) { return a < b ? a : b; }

}  // namespace

#if defined(__AVX2__) && defined(__F16C__)

bool SimdPackAvailable() { return true; }

namespace {

// Sliding-window mask table: TailMask(cnt) has the low cnt lanes set.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1,
                                                -1, -1, 0,  0,  0,  0,
                                                0,  0,  0,  0};

inline __m256i TailMask(int64_t cnt) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - cnt));
}

inline __m256 LoadN(const float* p, int64_t cnt, __m256i mask) {
  return cnt == 8 ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, mask);
}

/// In-place 8x8 transpose of r[0..7].
inline void Transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Transposes 4 row vectors into 8 column quads and stores them
/// contiguously at dst (column t at dst + t*4), for t in [0, cnt).
inline void StoreTransposed4x8(__m256 a, __m256 b, __m256 c, __m256 d,
                               int64_t cnt, float* dst) {
  const __m256 t0 = _mm256_unpacklo_ps(a, b);   // a0 b0 a1 b1 | a4 b4 a5 b5
  const __m256 t1 = _mm256_unpackhi_ps(a, b);   // a2 b2 a3 b3 | a6 b6 a7 b7
  const __m256 t2 = _mm256_unpacklo_ps(c, d);
  const __m256 t3 = _mm256_unpackhi_ps(c, d);
  const __m256 p0 = _mm256_shuffle_ps(t0, t2, 0x44);  // col 0 | col 4
  const __m256 p1 = _mm256_shuffle_ps(t0, t2, 0xEE);  // col 1 | col 5
  const __m256 p2 = _mm256_shuffle_ps(t1, t3, 0x44);  // col 2 | col 6
  const __m256 p3 = _mm256_shuffle_ps(t1, t3, 0xEE);  // col 3 | col 7
  __m128 cols[8];
  cols[0] = _mm256_castps256_ps128(p0);
  cols[1] = _mm256_castps256_ps128(p1);
  cols[2] = _mm256_castps256_ps128(p2);
  cols[3] = _mm256_castps256_ps128(p3);
  cols[4] = _mm256_extractf128_ps(p0, 1);
  cols[5] = _mm256_extractf128_ps(p1, 1);
  cols[6] = _mm256_extractf128_ps(p2, 1);
  cols[7] = _mm256_extractf128_ps(p3, 1);
  for (int64_t t = 0; t < cnt; ++t) {
    _mm_storeu_ps(dst + t * 4, cols[t]);
  }
}

inline __m256 QuantizeFp16(__m256 v) {
  // Round-trip through FP16 with round-to-nearest-even: bit-identical to
  // half_t::Quantize (vcvtps2ph implements the same IEEE conversion).
  return _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

/// ExpPortable (common/activations.h), eight lanes at a time.  max/min
/// would turn a NaN into a clamp bound, so NaN lanes are blended back in
/// at the end: the scalar form returns a NaN argument unchanged.
inline __m256 ExpVec(__m256 x) {
  using namespace expconst;
  const __m256 xc = _mm256_min_ps(
      _mm256_max_ps(x, _mm256_set1_ps(kExpLo)), _mm256_set1_ps(kExpHi));
  const __m256 shift = _mm256_set1_ps(kExpShift);
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kExpLog2e)), shift);
  const __m256 n = _mm256_sub_ps(t, shift);
  const __m256 r = _mm256_sub_ps(
      _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Hi))),
      _mm256_mul_ps(n, _mm256_set1_ps(kExpLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpC6);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  const __m256i sbits = _mm256_slli_epi32(
      _mm256_add_epi32(
          _mm256_sub_epi32(_mm256_castps_si256(t),
                           _mm256_set1_epi32(static_cast<int>(kExpShiftBits))),
          _mm256_set1_epi32(127)),
      23);
  const __m256 e = _mm256_mul_ps(p, _mm256_castsi256_ps(sbits));
  return _mm256_blendv_ps(e, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m256 ActVec(int op, __m256 v) {
  switch (op) {
    case kEpiActRelu:
      // Scalar: x > 0 ? x : 0.  maxps matches it everywhere, including
      // x = NaN (both produce +0) and x = -0 (both produce +0).
      return _mm256_max_ps(v, _mm256_setzero_ps());
    case kEpiActHardswish: {
      // Scalar: r = x + 3; clipped = r<0 ? 0 : (r>6 ? 6 : r);
      //         x * clipped / 6.  min/max clamping is value-identical
      //         (r = -0 cannot arise from x + 3 under round-to-nearest).
      const __m256 r = _mm256_add_ps(v, _mm256_set1_ps(3.0f));
      const __m256 clipped = _mm256_min_ps(
          _mm256_max_ps(r, _mm256_setzero_ps()), _mm256_set1_ps(6.0f));
      return _mm256_div_ps(_mm256_mul_ps(v, clipped),
                           _mm256_set1_ps(6.0f));
    }
    case kEpiActGelu: {
      // Scalar: inner = alpha * (x + beta * x * x * x);
      //         e = ExpPortable(-2 * inner);
      //         e == +inf ? -0 : x / (1 + e).
      const __m256 x3 = _mm256_mul_ps(
          _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(expconst::kGeluBeta), v),
                        v),
          v);
      const __m256 inner = _mm256_mul_ps(_mm256_set1_ps(expconst::kGeluAlpha),
                                         _mm256_add_ps(v, x3));
      const __m256 e =
          ExpVec(_mm256_mul_ps(_mm256_set1_ps(-2.0f), inner));
      return _mm256_blendv_ps(
          _mm256_div_ps(v, _mm256_add_ps(_mm256_set1_ps(1.0f), e)),
          _mm256_set1_ps(-0.0f),
          _mm256_cmp_ps(e, _mm256_set1_ps(__builtin_inff()), _CMP_EQ_OQ));
    }
    case kEpiActSigmoid: {
      // Scalar: 1 / (1 + ExpPortable(-x)); negation is a sign-bit flip.
      const __m256 e =
          ExpVec(_mm256_xor_ps(v, _mm256_set1_ps(-0.0f)));
      return _mm256_div_ps(_mm256_set1_ps(1.0f),
                           _mm256_add_ps(_mm256_set1_ps(1.0f), e));
    }
    default:
      return v;
  }
}

}  // namespace

void PackBPanelSimd(const float* w, int64_t k, int64_t n, int64_t j0,
                    int64_t ncb, int64_t p0, int64_t kcb, int64_t nr,
                    bool prefetch, float* dst) {
  const int64_t strips = (ncb + nr - 1) / nr;
  for (int64_t js = 0; js < strips; ++js) {
    float* s = dst + js * kcb * nr;
    const int64_t jbase = j0 + js * nr;
    const int64_t jn = Min64(nr, n - jbase);
    if (jn < nr) {
      // Zero the whole strip first so the padded columns beyond n match
      // the scalar packer's zero fill; the loops below overwrite the
      // valid columns.
      __builtin_memset(s, 0, static_cast<size_t>(kcb * nr) * sizeof(float));
    }
    int64_t jb = 0;
    for (; jb + 8 <= jn; jb += 8) {
      const float* rows[8];
      for (int t = 0; t < 8; ++t) {
        rows[t] = w + (jbase + jb + t) * k + p0;
      }
      for (int64_t kk = 0; kk < kcb; kk += 8) {
        const int64_t kcnt = Min64(8, kcb - kk);
        __m256 r[8];
        if (kcnt == 8) {
          for (int t = 0; t < 8; ++t) r[t] = _mm256_loadu_ps(rows[t] + kk);
          if (prefetch) {
            for (int t = 0; t < 8; ++t) {
              __builtin_prefetch(rows[t] + kk + 16, 0, 1);
            }
          }
        } else {
          const __m256i mask = TailMask(kcnt);
          for (int t = 0; t < 8; ++t) {
            r[t] = _mm256_maskload_ps(rows[t] + kk, mask);
          }
        }
        Transpose8x8(r);
        for (int64_t t = 0; t < kcnt; ++t) {
          _mm256_storeu_ps(s + (kk + t) * nr + jb, r[t]);
        }
      }
    }
    // Remaining valid columns (jn % 8) one at a time.
    for (int64_t j = jb; j < jn; ++j) {
      const float* src = w + (jbase + j) * k + p0;
      for (int64_t kk = 0; kk < kcb; ++kk) s[kk * nr + j] = src[kk];
    }
  }
}

void PackA4RunSimd(const float* const rows[4], int64_t len, int64_t stride,
                   float* dst) {
  if (len <= 0) return;
  const __m256 zero = _mm256_setzero_ps();
  if (stride == 1) {
    for (int64_t kk = 0; kk < len; kk += 8) {
      const int64_t cnt = Min64(8, len - kk);
      __m256 r[4];
      if (cnt == 8) {
        for (int i = 0; i < 4; ++i) {
          r[i] = rows[i] != nullptr ? _mm256_loadu_ps(rows[i] + kk) : zero;
        }
      } else {
        const __m256i mask = TailMask(cnt);
        for (int i = 0; i < 4; ++i) {
          r[i] = rows[i] != nullptr ? _mm256_maskload_ps(rows[i] + kk, mask)
                                    : zero;
        }
      }
      StoreTransposed4x8(r[0], r[1], r[2], r[3], cnt, dst + kk * 4);
    }
    return;
  }
  if (stride > (int64_t{1} << 28)) {
    // Gather indices are 32-bit element offsets; fall back to scalar for
    // absurd strides instead of overflowing them.
    for (int64_t t = 0; t < len; ++t) {
      for (int i = 0; i < 4; ++i) {
        dst[t * 4 + i] = rows[i] != nullptr ? rows[i][t * stride] : 0.0f;
      }
    }
    return;
  }
  const __m256i vidx =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(stride)));
  for (int64_t kk = 0; kk < len; kk += 8) {
    const int64_t cnt = Min64(8, len - kk);
    const __m256i mask = TailMask(cnt);
    __m256 r[4];
    for (int i = 0; i < 4; ++i) {
      if (rows[i] == nullptr) {
        r[i] = zero;
        continue;
      }
      const float* base = rows[i] + kk * stride;
      r[i] = cnt == 8
                 ? _mm256_i32gather_ps(base, vidx, 4)
                 : _mm256_mask_i32gather_ps(zero, base, vidx,
                                            _mm256_castsi256_ps(mask), 4);
    }
    StoreTransposed4x8(r[0], r[1], r[2], r[3], cnt, dst + kk * 4);
  }
}

void EpilogueRowSimd(const float* acc, float* out, const float* res,
                     const float* bias, int64_t count, float alpha,
                     float beta, const int* acts, int nacts,
                     bool boundary_quantize, bool quantize) {
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 vbeta = _mm256_set1_ps(beta);
  // Mirrors the scalar guard: beta scales an implicit zero residual when
  // only beta is set, which still flips -0 accumulators to +0.
  const bool res_term = res != nullptr || beta != 0.0f;
  for (int64_t j = 0; j < count; j += 8) {
    const int64_t cnt = Min64(8, count - j);
    const __m256i mask = TailMask(cnt);
    __m256 v = LoadN(acc + j, cnt, mask);
    if (boundary_quantize) {
      if (quantize) v = QuantizeFp16(v);
      if (bias != nullptr) {
        v = _mm256_add_ps(v, LoadN(bias + j, cnt, mask));
        if (quantize) v = QuantizeFp16(v);
      }
      for (int a = 0; a < nacts; ++a) {
        v = ActVec(acts[a], v);
        if (quantize) v = QuantizeFp16(v);
      }
      if (res != nullptr) {
        v = _mm256_add_ps(v, LoadN(res + j, cnt, mask));
        if (quantize) v = QuantizeFp16(v);
      }
    } else {
      v = _mm256_mul_ps(valpha, v);
      if (res_term) {
        const __m256 s =
            res != nullptr ? LoadN(res + j, cnt, mask) : _mm256_setzero_ps();
        v = _mm256_add_ps(v, _mm256_mul_ps(vbeta, s));
      }
      if (bias != nullptr) v = _mm256_add_ps(v, LoadN(bias + j, cnt, mask));
      for (int a = 0; a < nacts; ++a) v = ActVec(acts[a], v);
      if (quantize) v = QuantizeFp16(v);
    }
    if (cnt == 8) {
      _mm256_storeu_ps(out + j, v);
    } else {
      _mm256_maskstore_ps(out + j, mask, v);
    }
  }
}

#else  // toolchain/target without AVX2+F16C

bool SimdPackAvailable() { return false; }

// Scalar stand-ins so the symbols always link.  The driver only
// dispatches here when SimdPackAvailable() is true, so these never run;
// they still compute correctly if called.

void PackBPanelSimd(const float* w, int64_t k, int64_t n, int64_t j0,
                    int64_t ncb, int64_t p0, int64_t kcb, int64_t nr,
                    bool prefetch, float* dst) {
  (void)prefetch;
  const int64_t strips = (ncb + nr - 1) / nr;
  for (int64_t js = 0; js < strips; ++js) {
    float* s = dst + js * kcb * nr;
    const int64_t jbase = j0 + js * nr;
    const int64_t jn = Min64(nr, n - jbase);
    for (int64_t kk = 0; kk < kcb; ++kk) {
      for (int64_t j = 0; j < nr; ++j) {
        s[kk * nr + j] = j < jn ? w[(jbase + j) * k + p0 + kk] : 0.0f;
      }
    }
  }
}

void PackA4RunSimd(const float* const rows[4], int64_t len, int64_t stride,
                   float* dst) {
  for (int64_t t = 0; t < len; ++t) {
    for (int i = 0; i < 4; ++i) {
      dst[t * 4 + i] = rows[i] != nullptr ? rows[i][t * stride] : 0.0f;
    }
  }
}

namespace {

/// Scalar FP32 -> FP16 -> FP32 round-trip (round-to-nearest-even), the
/// same conversion half_t::Quantize performs.
float QuantizeFp16Scalar(float x) {
  uint32_t f;
  __builtin_memcpy(&f, &x, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  const uint32_t fexp = (f >> 23) & 0xffu;
  const uint32_t man = f & 0x7fffffu;
  uint32_t h;
  if (fexp == 0xffu) {  // inf / NaN (quiet the NaN, keep top payload bits)
    h = sign | 0x7c00u | (man != 0 ? (0x200u | (man >> 13)) : 0u);
  } else {
    const int32_t e = static_cast<int32_t>(fexp) - 127 + 15;
    if (e >= 0x1f) {
      h = sign | 0x7c00u;  // overflow -> inf
    } else if (e <= 0) {
      if (e < -10) {
        h = sign;  // underflow -> signed zero
      } else {
        const uint32_t m = man | 0x800000u;
        const int shift = 14 - e;
        uint32_t half = m >> shift;
        const uint32_t rem = m & ((1u << shift) - 1u);
        const uint32_t mid = 1u << (shift - 1);
        if (rem > mid || (rem == mid && (half & 1u))) ++half;
        h = sign | half;
      }
    } else {
      uint32_t half = sign | (static_cast<uint32_t>(e) << 10) | (man >> 13);
      const uint32_t rem = man & 0x1fffu;
      if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
      h = half;
    }
  }
  // FP16 -> FP32.
  const uint32_t hs = (h & 0x8000u) << 16;
  const uint32_t he = (h >> 10) & 0x1fu;
  const uint32_t hm = h & 0x3ffu;
  uint32_t bits;
  if (he == 0x1fu) {
    bits = hs | 0x7f800000u | (hm << 13);
  } else if (he == 0) {
    if (hm == 0) {
      bits = hs;
    } else {
      int e2 = 0;
      uint32_t m2 = hm;
      do {
        ++e2;
        m2 <<= 1;
      } while ((m2 & 0x400u) == 0);
      bits = hs | (static_cast<uint32_t>(113 - e2) << 23) |
             ((m2 & 0x3ffu) << 13);
    }
  } else {
    bits = hs | ((he + 112u) << 23) | (hm << 13);
  }
  float out;
  __builtin_memcpy(&out, &bits, sizeof(out));
  return out;
}

float ActScalar(int op, float x) {
  switch (op) {
    case kEpiActRelu:
      return ApplyActivation(ActivationKind::kRelu, x);
    case kEpiActHardswish:
      return ApplyActivation(ActivationKind::kHardswish, x);
    case kEpiActGelu:
      return ApplyActivation(ActivationKind::kGelu, x);
    case kEpiActSigmoid:
      return ApplyActivation(ActivationKind::kSigmoid, x);
    default:
      return x;
  }
}

}  // namespace

void EpilogueRowSimd(const float* acc, float* out, const float* res,
                     const float* bias, int64_t count, float alpha,
                     float beta, const int* acts, int nacts,
                     bool boundary_quantize, bool quantize) {
  const bool res_term = res != nullptr || beta != 0.0f;
  for (int64_t j = 0; j < count; ++j) {
    float v = acc[j];
    if (boundary_quantize) {
      if (quantize) v = QuantizeFp16Scalar(v);
      if (bias != nullptr) {
        v += bias[j];
        if (quantize) v = QuantizeFp16Scalar(v);
      }
      for (int a = 0; a < nacts; ++a) {
        v = ActScalar(acts[a], v);
        if (quantize) v = QuantizeFp16Scalar(v);
      }
      if (res != nullptr) {
        v += res[j];
        if (quantize) v = QuantizeFp16Scalar(v);
      }
    } else {
      v = alpha * v;
      if (res_term) v += beta * (res != nullptr ? res[j] : 0.0f);
      if (bias != nullptr) v += bias[j];
      for (int a = 0; a < nacts; ++a) v = ActScalar(acts[a], v);
      if (quantize) v = QuantizeFp16Scalar(v);
    }
    out[j] = v;
  }
}

#endif

}  // namespace internal
}  // namespace cpukernels
}  // namespace bolt
