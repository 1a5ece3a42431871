// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "serve/bucketing.h"

#include <algorithm>

#include "common/strings.h"

namespace bolt {
namespace serve {

Result<BucketPolicy> BucketPolicy::Create(std::vector<int64_t> buckets) {
  if (buckets.empty()) {
    return Status::InvalidArgument("bucket set must be non-empty");
  }
  for (int64_t b : buckets) {
    if (b < 1) {
      return Status::InvalidArgument(
          StrCat("bucket batch sizes must be >= 1, got ", b));
    }
  }
  std::sort(buckets.begin(), buckets.end());
  buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
  BucketPolicy p;
  p.buckets_ = std::move(buckets);
  return p;
}

std::optional<int64_t> BucketPolicy::RoundUp(int64_t rows) const {
  if (rows < 1) return std::nullopt;
  auto it = std::lower_bound(buckets_.begin(), buckets_.end(), rows);
  if (it == buckets_.end()) return std::nullopt;
  return *it;
}

}  // namespace serve
}  // namespace bolt
