// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Process-wide registry of profiler-selected CPU block configurations.
//
// The profiler measures BlockConfig candidates per GEMM problem shape and
// publishes the winner here; every interpreter launch (the engine's
// bolt.* kernels included) looks the shape up at execution time and falls
// back to the host default block (BlockConfig{}) on a miss.  The registry
// lives in cpukernels (the lowest layer) so no execution path depends on
// the profiler.
//
// Oracle independence: lookups return nothing while the reference backend
// is forced (BOLT_CPU_BACKEND=ref), so the differential-testing oracle can
// never observe tuning state.  Registration is still allowed — a cache
// file loaded under the ref backend stays dormant rather than lost.

#pragma once

#include <cstdint>
#include <optional>

#include "cpukernels/backend.h"
#include "cpukernels/config.h"
#include "ir/tensor.h"

namespace bolt {
namespace cpukernels {

/// Which kernel family a tuned block applies to.  GEMM and implicit-GEMM
/// conv share the (m, n, k) problem space but have different packing
/// costs, so the same dims may tune differently.
enum class TunedKind {
  kGemm,
  kConv,
};

inline const char* TunedKindName(TunedKind k) {
  return k == TunedKind::kConv ? "conv" : "gemm";
}

/// The activation layout is part of every registry key: an NCHW and an
/// NHWC conv with identical GEMM dims have very different packing costs
/// (strided gather vs contiguous runs) and tune to different blocks, so
/// without the layout they would collide.  GEMM entries always use
/// kRowMajor (their only layout), which the defaulted parameters below
/// encode so pure-GEMM call sites need no change.

/// Publishes the winning block for a problem shape.  `block` must satisfy
/// BlockConfig::Validate(); invalid blocks are rejected (returns false).
/// Re-registration overwrites.  Thread-safe.
bool RegisterTunedBlock(TunedKind kind, int64_t m, int64_t n, int64_t k,
                        const BlockConfig& block,
                        Layout layout = Layout::kRowMajor);

/// Looks up a tuned block for a problem shape under the given backend:
/// always nullopt for Backend::kReference (see header comment).
/// Thread-safe.
std::optional<BlockConfig> FindTunedBlockForBackend(
    TunedKind kind, int64_t m, int64_t n, int64_t k, Backend backend,
    Layout layout = Layout::kRowMajor);

/// Shape-bucketed lookup for the serving layer's batched executions:
/// exact (m, n, k) match first; on a miss, reuses the tuned block of the
/// *nearest batch size* with the same (n, k) — smallest tuned m above the
/// request, else the largest below (Nautilus-style reuse of a small tuned
/// kernel set across variable batch traffic).  The reused block's scheme
/// and ISA ride along, which is sound because every blocking is
/// numerically equivalent under the two-tier contract.  Near-misses are
/// counted separately (`cpu.tuned.lookup.near`).  Always nullopt for
/// Backend::kReference.
std::optional<BlockConfig> FindTunedBlockNearBatch(
    TunedKind kind, int64_t m, int64_t n, int64_t k, Backend backend,
    Layout layout = Layout::kRowMajor);

/// A registry entry returned by the nearest-shape query: the tuned shape
/// itself rides along so callers can tell how far the transfer reached.
struct TunedNeighbor {
  int64_t m = 0, n = 0, k = 0;
  BlockConfig block;
  /// Sum over the three dims of |log2(tuned) - log2(query)| — 0 for an
  /// exact match, 1.0 for one dim off by 2x, etc.
  double log2_distance = 0.0;
};

/// Cross-shape transfer lookup for the tuning path: the registered entry
/// nearest to (m, n, k) under per-axis log2 distance, any batch/cols/depth
/// (generalizing FindTunedBlockNearBatch's same-(n, k) constraint to the
/// full shape space).  Ties break toward the smallest registered key, so
/// results are deterministic.  This is a tuning-time policy query, not an
/// execution-time lookup: it is not backend-gated and feeds no
/// `cpu.tuned.lookup.*` counter — the profiler counts transfer seeds
/// under `cpu.tune.ranked.seeded` instead.
std::optional<TunedNeighbor> FindTunedBlockNearShape(
    TunedKind kind, int64_t m, int64_t n, int64_t k,
    Layout layout = Layout::kRowMajor);

/// Number of registered entries (tests / diagnostics).
int64_t TunedBlockCount();

/// Drops every registered entry (tests).
void ClearTunedBlocks();

}  // namespace cpukernels
}  // namespace bolt
