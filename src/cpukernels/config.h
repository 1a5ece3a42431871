// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// CPU kernel blocking configuration.
//
// The CPU backend mirrors cutlite's threadblock/warp tile decomposition
// (cutlite/config.h) with the classic BLIS/GotoBLAS cache hierarchy:
//
//   cutlite KernelConfig          CPU BlockConfig        resident in
//   --------------------         ----------------       ------------
//   threadblock.m                mc  (A panel rows)      L2
//   threadblock.n                nc  (B panel cols)      L3 / DRAM stream
//   threadblock.k                kc  (packed K slice)    L1/L2
//   warp.m x warp.n              kMR x kNR micro-tile    registers
//
// One (mc x kc) packed A panel and one (kc x nc) packed B panel feed a
// register-resident kMR x kNR micro-kernel, exactly the way a threadblock
// tile feeds warp tiles on the GPU.  docs/CPU_BACKEND.md spells out the
// mapping and the packing layouts.
//
// The parallelization scheme is a tunable axis (the CPU analogue of the
// GPU swizzle/rasterization choice): loop-level parallelism fans row
// panels out inside every (jc, pc) cache block (one barrier per block,
// shared packed-B panel; a launch with fewer row panels than pool
// participants fans out over N strips instead), batch-level parallelism
// gives each worker a whole row range through the entire loop nest (one
// barrier total, packed B duplicated per worker).  Both produce
// bit-identical results; which is
// faster depends on the workload shape, which is exactly why the profiler
// measures it instead of guessing.

#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/strings.h"
#include "cpukernels/cpuinfo.h"

namespace bolt {
namespace cpukernels {

/// Register micro-tile (the "warp tile" analogue).  Compile-time constants
/// so the micro-kernel accumulators live in vector registers; 4x8 FP32
/// fits the baseline x86-64 SSE register file without spilling.
inline constexpr int kMR = 4;
inline constexpr int kNR = 8;

/// Widest micro-tile column count across the ISA ladder: the AVX-512
/// kernel runs a 4x16 tile (nr = 16), scalar and AVX2 run 4x8 (nr = kNR).
/// Drivers size accumulators and packed strips for the resolved nr; kNR
/// remains the structural unit BlockConfig.nc validates against.
inline constexpr int kMaxNR = 16;

/// How a kernel launch distributes work across the thread pool.
enum class ParallelScheme : int {
  /// ParallelFor over mc row panels inside each (jc, pc) cache block —
  /// the historical behavior.  Workers share one packed B panel; there is
  /// one barrier per cache block.
  kLoopLevel = 0,
  /// One outer ParallelFor over mc-row chunks; each worker runs the full
  /// serial jc/pc loop nest on its own rows.  One barrier total, at the
  /// cost of packing B once per worker — wins on small per-op shapes
  /// where loop-level barriers dominate (the ResNet e2e gap).
  kBatchLevel = 1,
};

inline const char* ParallelSchemeName(ParallelScheme s) {
  return s == ParallelScheme::kBatchLevel ? "batch" : "loop";
}

/// Cache-blocking parameters (the "threadblock tile" analogue).
struct BlockConfig {
  int mc = 64;    // rows of A packed per panel (threadblock.m analogue)
  int kc = 256;   // K depth of one packed slice (threadblock.k analogue)
  int nc = 4096;  // cols of B packed per panel (threadblock.n analogue)
  ParallelScheme scheme = ParallelScheme::kLoopLevel;
  /// Micro-kernel instruction set, resolved per launch via ResolveCpuIsa
  /// (kAuto follows BOLT_CPU_ISA, defaulting to the host's best rung).
  /// A tunable axis like `scheme`: the profiler measures scalar
  /// vs AVX2 per problem shape instead of assuming wider is faster.
  CpuIsa isa = CpuIsa::kAuto;
  /// Software-prefetch the next packed A/B micro-panels in the macro
  /// loops (and the pack-source rows), BLIS-style.  A tunable axis like
  /// `scheme`: whether hiding panel-load latency pays depends on the
  /// shape's arithmetic intensity, so the profiler measures it per shape
  /// instead of guessing.  Off by default; numerics are unaffected.
  bool prefetch = false;

  /// Structural validity: the packing layouts want mc a positive multiple
  /// of kMR, nc a positive multiple of kNR, and kc at least the minimum
  /// slice depth the kernels block on.  The execution kernels clamp
  /// out-of-range values defensively (GemmCore), but the tuning path must
  /// never emit or accept a config that needs clamping.
  Status Validate() const {
    if (mc < kMR || mc % kMR != 0) {
      return Status::InvalidArgument(
          StrCat("BlockConfig.mc=", mc, " must be a positive multiple of ",
                 kMR));
    }
    if (nc < kNR || nc % kNR != 0) {
      return Status::InvalidArgument(
          StrCat("BlockConfig.nc=", nc, " must be a positive multiple of ",
                 kNR));
    }
    if (kc < 8) {
      return Status::InvalidArgument(
          StrCat("BlockConfig.kc=", kc, " must be >= 8"));
    }
    if (scheme != ParallelScheme::kLoopLevel &&
        scheme != ParallelScheme::kBatchLevel) {
      return Status::InvalidArgument("BlockConfig.scheme is invalid");
    }
    if (isa != CpuIsa::kAuto && isa != CpuIsa::kScalar &&
        isa != CpuIsa::kAvx2 && isa != CpuIsa::kAvx512) {
      return Status::InvalidArgument("BlockConfig.isa is invalid");
    }
    return Status::Ok();
  }

  /// Validating factory for the tuning path: returns InvalidArgument for
  /// any block the packing layouts cannot honor exactly (instead of the
  /// silent clamping GemmCore applies).
  static Result<BlockConfig> Make(
      int mc, int kc, int nc,
      ParallelScheme scheme = ParallelScheme::kLoopLevel,
      CpuIsa isa = CpuIsa::kAuto, bool prefetch = false) {
    BlockConfig c;
    c.mc = mc;
    c.kc = kc;
    c.nc = nc;
    c.scheme = scheme;
    c.isa = isa;
    c.prefetch = prefetch;
    BOLT_RETURN_IF_ERROR(c.Validate());
    return c;
  }

  friend bool operator==(const BlockConfig& a, const BlockConfig& b) {
    return a.mc == b.mc && a.kc == b.kc && a.nc == b.nc &&
           a.scheme == b.scheme && a.isa == b.isa &&
           a.prefetch == b.prefetch;
  }
  friend bool operator!=(const BlockConfig& a, const BlockConfig& b) {
    return !(a == b);
  }
};

}  // namespace cpukernels
}  // namespace bolt
