// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Blocked packed-GEMM driver shared by the dense and implicit-GEMM conv
// kernels.  Not part of the public cpukernels API.
//
// Structure (GotoBLAS/BLIS, one level per cache):
//
//   for jc in N step nc:                 serial
//     for pc in K step kc:               serial (C accumulates across pc)
//       pack B panel [kc x nc]           nr-wide column strips
//       ParallelFor ic in M step mc:     output-tile parallelism
//         pack A panel [mc x kc]         kMR-wide row strips (im2col here)
//         for jr, ir micro tiles:        register micro-kernel
//           acc += Ap x Bp over the kc slice
//           last pc slice: fused epilogue on write-back
//
// Small-M launches (fewer mc row panels than pool participants and nr
// strips) swap the parallel axis: one task per contiguous chunk of nr
// strips runs the pc loop for its own columns, packing its own B strips
// (GemmCoreRows).
//
// The micro-tile column count nr is an ISA property: 8 for the scalar and
// AVX2 kernels, 16 for AVX-512.  The packed-B strip width and the jr loop
// follow the resolved nr; the packed-A layout (kMR-interleaved) is shared
// by every tier.
//
// Numeric contract (two-tier, see docs/CPU_BACKEND.md): every output
// element accumulates its K terms in strictly ascending k order (within a
// slice in the micro-kernel, across slices through the FP32 C buffer),
// which is the same addition sequence as the naive triple loop.  With the
// scalar micro-kernel each term is rounded exactly like the reference
// loop, so results are bit-identical to the reference kernels and to
// themselves for any thread count — the differential tests and the
// reference backend's composite steps rely on this.  The AVX2 and AVX-512
// micro-kernels keep the same accumulation *order* but fuse each
// multiply-add into one rounding, so their tier is ULP-bounded agreement
// instead of bit identity; they are only selected through ResolveCpuIsa
// (cpuinfo.h).  The vectorized packing and epilogue paths (pack_simd.cc)
// are bit-identical data movement — SIMD tiers diverge from the scalar
// tier only through the micro-kernel FMA, and the scalar tier never uses
// them at all.

#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "cpukernels/config.h"
#include "cpukernels/epilogue.h"
#include "cpukernels/micro.h"

namespace bolt {
namespace cpukernels {
namespace internal {

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Packs the B panel: W is [n, k] row-major (weights); the panel covers
/// columns [j0, j0+ncb) and depth [p0, p0+kcb), laid out as nr-wide
/// column strips, each strip kcb x nr with columns contiguous per k.
/// Columns beyond n are zero-padded.  Scalar reference path; the SIMD
/// tiers use PackBPanelSimd (pack_simd.cc), which produces bit-identical
/// bytes.
inline void PackB(const float* w, int64_t k, int64_t n, int64_t j0,
                  int64_t ncb, int64_t p0, int64_t kcb, int64_t nr,
                  float* dst) {
  const int64_t strips = CeilDiv(ncb, nr);
  for (int64_t js = 0; js < strips; ++js) {
    float* s = dst + js * kcb * nr;
    const int64_t jbase = j0 + js * nr;
    const int64_t jn = std::min<int64_t>(nr, n - jbase);
    for (int64_t kk = 0; kk < kcb; ++kk) {
      for (int64_t j = 0; j < nr; ++j) {
        s[kk * nr + j] =
            j < jn ? w[(jbase + j) * k + p0 + kk] : 0.0f;
      }
    }
  }
}

/// Register micro-kernel: acc[kMR][kNR] += Ap-strip x Bp-strip over the
/// kc slice.  `ap` is kMR-interleaved (kMR values per k step), `bp` is
/// kNR-interleaved.  The j loop has a compile-time trip count so the
/// compiler vectorizes it; per-element accumulation stays in ascending k
/// order.
inline void MicroKernel(int64_t kcb, const float* ap, const float* bp,
                        float* acc) {
  for (int64_t kk = 0; kk < kcb; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float av = a[r];
      float* row = acc + r * kNR;
      for (int j = 0; j < kNR; ++j) row[j] += av * b[j];
    }
  }
}

// micro_avx2.cc / micro_avx512.cc hardcode their micro-tile shapes
// because they cannot include this header (ODR/ISA hazard, see micro.h).
static_assert(kMR == 4 && kNR == 8,
              "micro_avx2.cc hardcodes a 4x8 micro-tile");
static_assert(kMR == 4 && kMaxNR == 16,
              "micro_avx512.cc hardcodes a 4x16 micro-tile");

/// Micro-kernel plus the micro-tile column count it operates on.
struct MicroPlan {
  MicroKernelFn fn;
  int64_t nr;
};

/// Maps a *resolved* ISA (from ResolveCpuIsa; never kAuto) to the
/// micro-kernel that implements it and its nr.
inline MicroPlan SelectMicroPlan(CpuIsa resolved) {
  if (resolved == CpuIsa::kAvx512) return {&MicroKernelAvx512, 16};
  if (resolved == CpuIsa::kAvx2) return {&MicroKernelAvx2, kNR};
  return {&MicroKernel, kNR};
}

/// Everything GemmCore resolves once per launch and the loop nest then
/// treats as immutable: the micro-kernel and its nr, whether the SIMD
/// pack / epilogue paths are active, the translated activation opcodes
/// for the vector epilogue, and the prefetch axis.
struct LaunchPlan {
  MicroKernelFn micro = &MicroKernel;
  int64_t nr = kNR;
  bool prefetch = false;
  /// Vectorized PackA/PackB (pack_simd.cc).  Only true on a SIMD tier
  /// with the pack TU compiled in and CurrentCpuPackMode() == kSimd.
  bool simd_pack = false;
  /// Vectorized fused epilogue.  Only true when simd_pack is, the output
  /// rows are contiguous, and every epilogue stage has an exact vector
  /// mirror (see BuildLaunchPlan).
  bool simd_epi = false;
  int acts[8] = {};
  int nacts = 0;
};

/// Translates an ActivationKind to its EpilogueRowSimd opcode, or -1 for
/// Softplus, which the vector epilogue does not mirror (it needs log1p;
/// those launches keep the scalar epilogue loop).
inline int EpiActOpcode(ActivationKind a) {
  switch (a) {
    case ActivationKind::kIdentity:
      return kEpiActIdentity;
    case ActivationKind::kRelu:
      return kEpiActRelu;
    case ActivationKind::kHardswish:
      return kEpiActHardswish;
    case ActivationKind::kGelu:
      return kEpiActGelu;
    case ActivationKind::kSigmoid:
      return kEpiActSigmoid;
    default:
      return -1;
  }
}

/// Resolves the per-launch plan.  `contiguous_rows` says whether
/// dindex(i, j+1) == dindex(i, j) + 1 for every output row — true for
/// GEMM and NHWC conv, false for the scattered NCHW output, whose
/// epilogue stays scalar.
inline LaunchPlan BuildLaunchPlan(CpuIsa resolved, const BlockConfig& cfg,
                                  const Epilogue& epi,
                                  bool contiguous_rows) {
  LaunchPlan plan;
  const MicroPlan mp = SelectMicroPlan(resolved);
  plan.micro = mp.fn;
  plan.nr = mp.nr;
  plan.prefetch = cfg.prefetch;
  const bool simd_tier =
      resolved == CpuIsa::kAvx2 || resolved == CpuIsa::kAvx512;
  plan.simd_pack = simd_tier && SimdPackAvailable() &&
                   CurrentCpuPackMode() == CpuPackMode::kSimd;
  if (plan.simd_pack && contiguous_rows &&
      epi.acts.size() <= sizeof(plan.acts) / sizeof(plan.acts[0])) {
    bool ok = true;
    for (ActivationKind a : epi.acts) {
      const int op = EpiActOpcode(a);
      if (op < 0) {
        ok = false;
        break;
      }
      plan.acts[plan.nacts++] = op;
    }
    if (epi.quantizes() && !HostSupportsF16c()) ok = false;
    plan.simd_epi = ok;
    if (!ok) plan.nacts = 0;
  }
  return plan;
}

/// Prefetches the leading cache lines of the next packed micro-panel
/// (up to 8 lines; enough to hide the panel's cold-start latency without
/// flooding the load ports — the rest streams in behind the micro-kernel).
inline void PrefetchPanel(const float* p, int64_t count) {
  const int64_t limit = count < 128 ? count : 128;
  for (int64_t i = 0; i < limit; i += 16) {
    __builtin_prefetch(p + i, 0, 1);
  }
}

/// Packs strips [js0, js1) of the (jc, pc) B panel, strip js0 first, into
/// `dst` (each strip kcb x nr).
inline void PackBStrips(const float* w, int64_t n, int64_t k, int64_t jc,
                        int64_t ncb, int64_t pc, int64_t kcb, int64_t js0,
                        int64_t js1, const LaunchPlan& plan, float* dst) {
  if (kcb <= 0) return;
  const int64_t nr = plan.nr;
  const int64_t j0 = jc + js0 * nr;
  const int64_t cols = std::min(js1 * nr, ncb) - js0 * nr;
  if (plan.simd_pack) {
    PackBPanelSimd(w, k, n, j0, cols, pc, kcb, nr, plan.prefetch, dst);
  } else {
    PackB(w, k, n, j0, cols, pc, kcb, nr, dst);
  }
}

/// Multiplies one packed A row panel (rows [i0, i0+mcb)) by the packed B
/// strips [js0, js1) of panel jc (`bstrips`, as PackBStrips lays them out)
/// over one kc slice, accumulating through `d` across slices (`first`
/// zeroes the accumulators, `last` applies the epilogue on write-back).
/// Prefetches stay inside [js0, js1).
template <typename DIndexFn>
void MultiplyPanel(const float* apanel, const float* bstrips, int64_t i0,
                   int64_t mcb, int64_t jc, int64_t js0, int64_t js1,
                   int64_t n, int64_t kcb, bool first, bool last, float* d,
                   const Epilogue& epi, const LaunchPlan& plan,
                   DIndexFn&& dindex) {
  const int64_t nr = plan.nr;
  const int64_t istrips = CeilDiv(mcb, kMR);
  float acc[kMR * kMaxNR];
  for (int64_t js = js0; js < js1; ++js) {
    const float* bp = bstrips + (js - js0) * kcb * nr;
    const int64_t j0 = jc + js * nr;
    const int64_t jn = std::min<int64_t>(nr, n - j0);
    for (int64_t is = 0; is < istrips; ++is) {
      const float* ap = apanel + is * kcb * kMR;
      const int64_t gi0 = i0 + is * kMR;
      const int64_t rm = std::min<int64_t>(kMR, i0 + mcb - gi0);
      if (plan.prefetch && kcb > 0) {
        // Warm the next A strip while this one multiplies; at the
        // row-panel edge, warm the next B strip instead.
        if (is + 1 < istrips) {
          PrefetchPanel(apanel + (is + 1) * kcb * kMR, kcb * kMR);
        } else if (js + 1 < js1) {
          PrefetchPanel(bp + kcb * nr, kcb * nr);
        }
      }
      if (first) {
        for (int64_t v = 0; v < kMR * nr; ++v) acc[v] = 0.0f;
      } else {
        for (int64_t r = 0; r < rm; ++r)
          for (int64_t j = 0; j < jn; ++j)
            acc[r * nr + j] = d[dindex(gi0 + r, j0 + j)];
      }
      if (kcb > 0) plan.micro(kcb, ap, bp, acc);
      if (last) {
        if (plan.simd_epi) {
          for (int64_t r = 0; r < rm; ++r) {
            const int64_t di0 = dindex(gi0 + r, j0);
            EpilogueRowSimd(
                acc + r * nr, d + di0,
                epi.residual != nullptr ? epi.residual + di0 : nullptr,
                epi.bias != nullptr ? epi.bias + j0 : nullptr, jn, epi.alpha,
                epi.beta, plan.acts, plan.nacts, epi.boundary_quantize,
                epi.quantizes());
          }
        } else {
          for (int64_t r = 0; r < rm; ++r) {
            for (int64_t j = 0; j < jn; ++j) {
              const int64_t di = dindex(gi0 + r, j0 + j);
              const float src =
                  epi.residual != nullptr ? epi.residual[di] : 0.0f;
              const float b = epi.bias != nullptr ? epi.bias[j0 + j] : 0.0f;
              d[di] = ApplyEpilogue(epi, acc[r * nr + j], src, b);
            }
          }
        }
      } else {
        for (int64_t r = 0; r < rm; ++r)
          for (int64_t j = 0; j < jn; ++j)
            d[dindex(gi0 + r, j0 + j)] = acc[r * nr + j];
      }
    }
  }
}

/// Runs the full jc/pc cache-loop nest over output rows [m_lo, m_hi).
/// With a null pool the nest is fully serial.  With a pool, each jc panel
/// parallelizes one of two ways:
///
///  * over M: row panels inside each (jc, pc) block fan out (loop-level
///    parallelism) over a B panel packed once per block;
///  * over N, when the launch has fewer row panels than both the pool
///    participants and the panel's nr strips, so splitting N keeps more
///    participants busy (the small-M case: batch-1 dense layers,
///    late-stage convs): one task per contiguous chunk of nr
///    strips runs the whole pc loop for its columns, packing its own
///    strips into its disjoint range of the shared B panel (sized for a
///    full kc slice, so chunks on different slices never overlap) and its
///    own copy of each A panel.
///
/// Either way every output element accumulates its K terms in ascending
/// order through the same slices, so the split never changes a result.
/// See GemmCore below for the pack_a / dindex contracts.
template <typename PackAFn, typename DIndexFn>
void GemmCoreRows(int64_t m_lo, int64_t m_hi, int64_t n, int64_t k,
                  const float* w, float* d, const Epilogue& epi, int64_t mc,
                  int64_t kc, int64_t nc, const LaunchPlan& plan,
                  ThreadPool* pool, PackAFn&& pack_a, DIndexFn&& dindex) {
  const int64_t nr = plan.nr;
  // K == 0 degenerates to an epilogue-only pass over zero accumulators.
  const int64_t kblocks = std::max<int64_t>(1, CeilDiv(k, kc));
  const int64_t iblocks = CeilDiv(m_hi - m_lo, mc);
  const int64_t participants =
      pool != nullptr ? pool->num_threads() + 1 : 1;
  const int64_t kc_max = std::max<int64_t>(1, std::min(kc, k));
  std::vector<float> bpanel;
  for (int64_t jc = 0; jc < n; jc += nc) {
    const int64_t ncb = std::min(nc, n - jc);
    const int64_t jstrips = CeilDiv(ncb, nr);
    bpanel.resize(static_cast<size_t>(jstrips * nr * kc_max));

    // Row panel ib against strips [js0, js1), packed at `bstrips`, over
    // kc slice pb.
    auto block = [&](std::vector<float>& apanel, const float* bstrips,
                     int64_t ib, int64_t js0, int64_t js1, int64_t pb) {
      const int64_t pc = pb * kc;
      const int64_t kcb = std::min(kc, k - pc);
      const int64_t i0 = m_lo + ib * mc;
      const int64_t mcb = std::min(mc, m_hi - i0);
      apanel.resize(static_cast<size_t>(CeilDiv(mcb, kMR) * kMR *
                                        std::max<int64_t>(kcb, 1)));
      if (kcb > 0) pack_a(apanel.data(), i0, mcb, pc, kcb, plan.simd_pack);
      MultiplyPanel(apanel.data(), bstrips, i0, mcb, jc, js0, js1, n, kcb,
                    pb == 0, pb == kblocks - 1, d, epi, plan, dindex);
    };

    const int64_t n_ways = std::min(jstrips, participants);
    if (pool != nullptr && iblocks < n_ways) {
      const int64_t per_chunk = CeilDiv(jstrips, n_ways);
      pool->ParallelFor(CeilDiv(jstrips, per_chunk), [&](int64_t c) {
        const int64_t js0 = c * per_chunk;
        const int64_t js1 = std::min(jstrips, js0 + per_chunk);
        float* bstrips = bpanel.data() + js0 * kc_max * nr;
        std::vector<float> apanel;
        for (int64_t pb = 0; pb < kblocks; ++pb) {
          PackBStrips(w, n, k, jc, ncb, pb * kc, std::min(kc, k - pb * kc),
                      js0, js1, plan, bstrips);
          for (int64_t ib = 0; ib < iblocks; ++ib) {
            block(apanel, bstrips, ib, js0, js1, pb);
          }
        }
      });
      continue;
    }
    for (int64_t pb = 0; pb < kblocks; ++pb) {
      PackBStrips(w, n, k, jc, ncb, pb * kc, std::min(kc, k - pb * kc), 0,
                  jstrips, plan, bpanel.data());
      auto row_panel = [&](int64_t ib) {
        std::vector<float> apanel;
        block(apanel, bpanel.data(), ib, 0, jstrips, pb);
      };
      if (pool != nullptr && iblocks > 1) {
        pool->ParallelFor(iblocks, row_panel);
      } else {
        for (int64_t ib = 0; ib < iblocks; ++ib) row_panel(ib);
      }
    }
  }
}

/// Blocked GEMM core: D[m, n] (+)= A[m, k] x W[n, k]^T with the epilogue
/// fused into the final write-back.
///
///  * `pack_a(dst, i0, mcb, p0, kcb, simd)` packs A rows [i0, i0+mcb) and
///    depth [p0, p0+kcb) into kMR-wide row strips (strip layout: strip
///    is, then k, then kMR row values; rows beyond the panel
///    zero-padded).  `simd` mirrors LaunchPlan::simd_pack: when true the
///    callback may use the PackA4RunSimd fast path (bit-identical
///    output); when false it must stay on the scalar loops so the scalar
///    tier never executes AVX code.  The conv kernels implement
///    panel-wise im2col here, so no full im2col matrix is ever
///    materialized.
///  * `dindex(i, j)` maps an output (row, col) to an index into `d` (and
///    into `epi.residual`), which lets the NCHW conv write its scattered
///    output layout directly.
///  * `contiguous_rows` declares dindex(i, j+1) == dindex(i, j) + 1 so
///    the vectorized epilogue can treat output rows as dense slices.
///
/// When `pool` is non-null the launch parallelizes per `cfg.scheme`:
/// loop-level fans row panels out inside every (jc, pc) block;
/// batch-level splits the rows into one contiguous mc-aligned chunk per
/// thread and runs the full serial nest per chunk (packed B duplicated
/// per chunk, one barrier total).  Both schemes accumulate each output
/// element's K terms in the same ascending order, so results stay
/// bit-identical to the reference kernels regardless of scheme or thread
/// count.  The caller participates in ParallelFor, so nesting under other
/// loops is safe.
template <typename PackAFn, typename DIndexFn>
void GemmCore(int64_t m, int64_t n, int64_t k, const float* w, float* d,
              const Epilogue& epi, const BlockConfig& cfg, ThreadPool* pool,
              PackAFn&& pack_a, DIndexFn&& dindex,
              bool contiguous_rows = true) {
  if (m <= 0 || n <= 0) return;
  // Resolve the ISA once per launch; every row chunk and panel of this
  // launch uses the same micro-kernel, pack path, and epilogue path
  // regardless of scheme or threads.
  const CpuIsa resolved = ResolveCpuIsa(cfg.isa);
  const LaunchPlan plan = BuildLaunchPlan(resolved, cfg, epi,
                                          contiguous_rows);
  const int64_t mc = std::max<int64_t>(kMR, cfg.mc);
  const int64_t kc = std::max<int64_t>(8, cfg.kc);
  // nc must be a multiple of the *resolved* nr so B strips never straddle
  // a jc panel boundary (an AVX-512 launch rounds an nc tuned as a bare
  // multiple of 8 down to a multiple of 16, or up to one strip minimum).
  const int64_t nc = std::max<int64_t>(
      plan.nr, (static_cast<int64_t>(cfg.nc) / plan.nr) * plan.nr);

  {
    static metrics::Counter& simd_pack_launches =
        metrics::Registry::Global().GetCounter("cpu.simd.pack.launches");
    static metrics::Counter& simd_epi_launches =
        metrics::Registry::Global().GetCounter(
            "cpu.simd.epilogue.launches");
    static metrics::Counter& prefetch_launches =
        metrics::Registry::Global().GetCounter("cpu.prefetch.launches");
    static metrics::Counter& avx512_launches =
        metrics::Registry::Global().GetCounter("cpu.isa.avx512.launches");
    if (plan.simd_pack) simd_pack_launches.Increment();
    if (plan.simd_epi) simd_epi_launches.Increment();
    if (plan.prefetch) prefetch_launches.Increment();
    if (resolved == CpuIsa::kAvx512) avx512_launches.Increment();
  }

  const int64_t iblocks = CeilDiv(m, mc);
  if (pool != nullptr && cfg.scheme == ParallelScheme::kBatchLevel &&
      iblocks > 1) {
    // One contiguous mc-aligned row chunk per participant (workers plus
    // the calling thread); each chunk runs the whole nest serially.
    const int64_t chunks =
        std::min<int64_t>(iblocks, pool->num_threads() + 1);
    const int64_t blocks_per_chunk = CeilDiv(iblocks, chunks);
    pool->ParallelFor(chunks, [&](int64_t c) {
      const int64_t lo = c * blocks_per_chunk * mc;
      const int64_t hi =
          std::min<int64_t>(m, (c + 1) * blocks_per_chunk * mc);
      if (lo >= hi) return;
      GemmCoreRows(lo, hi, n, k, w, d, epi, mc, kc, nc, plan, nullptr,
                   pack_a, dindex);
    });
    return;
  }
  GemmCoreRows(0, m, n, k, w, d, epi, mc, kc, nc, plan, pool, pack_a,
               dindex);
}

}  // namespace internal
}  // namespace cpukernels
}  // namespace bolt
