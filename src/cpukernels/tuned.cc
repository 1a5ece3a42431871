// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "cpukernels/tuned.h"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/metrics.h"

namespace bolt {
namespace cpukernels {
namespace {

// (kind, layout, m, n, k): layout right after kind so same-layout entries
// stay contiguous and the m-ascending iteration order the near-batch and
// batch-sizes queries rely on is preserved within a (kind, layout) group.
using Key = std::tuple<int, int, int64_t, int64_t, int64_t>;

struct Registry {
  std::mutex mu;
  std::map<Key, BlockConfig> blocks;
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();
  return *r;
}

Key MakeKey(TunedKind kind, Layout layout, int64_t m, int64_t n, int64_t k) {
  return {static_cast<int>(kind), static_cast<int>(layout), m, n, k};
}

struct LookupCounters {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Counter& nears;

  static LookupCounters& Get() {
    static LookupCounters* c = new LookupCounters{
        metrics::Registry::Global().GetCounter("cpu.tuned.lookup.hit"),
        metrics::Registry::Global().GetCounter("cpu.tuned.lookup.miss"),
        metrics::Registry::Global().GetCounter("cpu.tuned.lookup.near"),
    };
    return *c;
  }
};

/// Uncounted exact lookup; caller holds r.mu and decides which counter
/// (if any) the outcome feeds, so composite lookups like NearBatch can
/// count each request exactly once.
const BlockConfig* FindExactLocked(Registry& r, TunedKind kind, Layout layout,
                                   int64_t m, int64_t n, int64_t k) {
  auto it = r.blocks.find(MakeKey(kind, layout, m, n, k));
  return it == r.blocks.end() ? nullptr : &it->second;
}

}  // namespace

bool RegisterTunedBlock(TunedKind kind, int64_t m, int64_t n, int64_t k,
                        const BlockConfig& block, Layout layout) {
  if (!block.Validate().ok()) return false;
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.blocks[MakeKey(kind, layout, m, n, k)] = block;
  return true;
}

std::optional<BlockConfig> FindTunedBlockForBackend(TunedKind kind,
                                                    int64_t m, int64_t n,
                                                    int64_t k,
                                                    Backend backend,
                                                    Layout layout) {
  if (backend == Backend::kReference) return std::nullopt;
  // Hit/miss counters make registry consultation observable: execution
  // paths that should pick up tuned blocks can be asserted on without
  // plumbing test hooks.
  LookupCounters& counters = LookupCounters::Get();
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  const BlockConfig* found = FindExactLocked(r, kind, layout, m, n, k);
  if (found == nullptr) {
    counters.misses.Increment();
    return std::nullopt;
  }
  counters.hits.Increment();
  return *found;
}

std::optional<BlockConfig> FindTunedBlockNearBatch(TunedKind kind,
                                                   int64_t m, int64_t n,
                                                   int64_t k,
                                                   Backend backend,
                                                   Layout layout) {
  if (backend == Backend::kReference) return std::nullopt;
  LookupCounters& counters = LookupCounters::Get();
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  // One request feeds exactly one counter: hit (exact), near (nearest
  // batch), or miss (both lookups failed).  The exact probe deliberately
  // bypasses the counting lookup — routing it through
  // FindTunedBlockForBackend used to charge a miss even when the near
  // lookup then hit, double-counting misses on serving dashboards.
  if (const BlockConfig* exact = FindExactLocked(r, kind, layout, m, n, k)) {
    counters.hits.Increment();
    return *exact;
  }
  // Keys order as (kind, layout, m, n, k), so same-(n, k) entries for
  // other batch sizes are scattered; a linear scan is fine at registry
  // scale (one entry per tuned problem shape).
  std::optional<int64_t> above, below;
  for (const auto& [key, block] : r.blocks) {
    if (std::get<0>(key) != static_cast<int>(kind)) continue;
    if (std::get<1>(key) != static_cast<int>(layout)) continue;
    if (std::get<3>(key) != n || std::get<4>(key) != k) continue;
    const int64_t bm = std::get<2>(key);
    if (bm >= m) {
      if (!above || bm < *above) above = bm;
    } else if (!below || bm > *below) {
      below = bm;
    }
  }
  const std::optional<int64_t> pick = above ? above : below;
  if (!pick) {
    counters.misses.Increment();
    return std::nullopt;
  }
  counters.nears.Increment();
  return r.blocks.at(MakeKey(kind, layout, *pick, n, k));
}

std::optional<TunedNeighbor> FindTunedBlockNearShape(TunedKind kind,
                                                     int64_t m, int64_t n,
                                                     int64_t k,
                                                     Layout layout) {
  if (m <= 0 || n <= 0 || k <= 0) return std::nullopt;
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::optional<TunedNeighbor> best;
  auto axis = [](int64_t a, int64_t b) {
    return std::abs(std::log2(static_cast<double>(a)) -
                    std::log2(static_cast<double>(b)));
  };
  for (const auto& [key, block] : r.blocks) {
    if (std::get<0>(key) != static_cast<int>(kind)) continue;
    if (std::get<1>(key) != static_cast<int>(layout)) continue;
    const int64_t bm = std::get<2>(key);
    const int64_t bn = std::get<3>(key);
    const int64_t bk = std::get<4>(key);
    const double dist = axis(bm, m) + axis(bn, n) + axis(bk, k);
    // Strict less keeps the first (smallest-key, i.e. deterministic)
    // entry among equidistant shapes.
    if (!best || dist < best->log2_distance) {
      best = TunedNeighbor{bm, bn, bk, block, dist};
    }
  }
  return best;
}

int64_t TunedBlockCount() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return static_cast<int64_t>(r.blocks.size());
}

void ClearTunedBlocks() {
  Registry& r = GlobalRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.blocks.clear();
}

}  // namespace cpukernels
}  // namespace bolt
