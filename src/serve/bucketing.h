// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Batch-size bucketing for the serving layer.
//
// Compiling (and tuning) an engine per observed batch size would explode
// the cache under variable traffic, so the server serves every request
// mix from a small set of *bucket* batch sizes: a partial batch of r rows
// executes on the engine compiled for the smallest bucket >= r, with the
// gap zero-padded (Engine::RunBatch).  This is the paper's kernel-padding
// idea lifted to whole batches, and mirrors Nautilus-style reuse of a
// small tuned kernel set across variable-size traffic.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"

namespace bolt {
namespace serve {

/// An immutable, sorted set of batch-size buckets.
class BucketPolicy {
 public:
  BucketPolicy() = default;

  /// Validates, sorts and dedupes `buckets`.  Fails on an empty set or a
  /// non-positive bucket.
  static Result<BucketPolicy> Create(std::vector<int64_t> buckets);

  /// Smallest bucket >= rows; nullopt when rows exceeds every bucket
  /// (the request cannot be served) or rows < 1.
  std::optional<int64_t> RoundUp(int64_t rows) const;

  int64_t max_bucket() const {
    return buckets_.empty() ? 0 : buckets_.back();
  }
  const std::vector<int64_t>& buckets() const { return buckets_; }
  bool empty() const { return buckets_.empty(); }

 private:
  std::vector<int64_t> buckets_;  // ascending, distinct
};

}  // namespace serve
}  // namespace bolt
