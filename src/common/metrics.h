// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// A lightweight process-wide metrics registry: named monotonic counters
// and latency histograms, safe to update from any thread (including the
// ThreadPool workers the profiler and engine fan out over).
//
// Unlike tracing (common/trace.h), metrics are always on: updates are a
// handful of relaxed atomic operations, and instrumentation sites keep
// them at workload/pass granularity so hot loops stay untouched.  The
// trace flusher embeds a registry snapshot under "boltMetrics"; tests and
// tools can also read `Registry::Global().DumpJson()` directly.  See
// docs/OBSERVABILITY.md for the metrics glossary.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bolt {
namespace metrics {

/// Monotonic counter.  Increment is a single relaxed atomic add.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency histogram with power-of-two bucket bounds (in the caller's
/// unit, conventionally microseconds): bucket i counts observations in
/// (2^(i-1), 2^i], bucket 0 counts <= 1, the last bucket is the overflow.
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;  // up to ~134s in us, + overflow

  /// Records one observation.  Non-finite values (NaN, +-Inf) are
  /// rejected — a NaN would otherwise poison `sum` permanently and break
  /// DumpJson's output (bare `nan` is not JSON).
  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::vector<int64_t> bucket_counts() const;
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  // Sum kept as a CAS loop over an atomic double (portable pre-C++20
  // fetch_add semantics).
  std::atomic<double> sum_{0.0};
};

/// Global name -> instrument registry.  Get-or-create is mutex-guarded
/// and returns references with stable addresses, so call sites cache the
/// reference once (e.g. in a function-local static) and update lock-free
/// thereafter.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// JSON object: {"counters":{...},"histograms":{name:{"count":..,
  /// "sum":..,"buckets":[...]}}} with trailing empty buckets elided.
  /// Metric names are escaped, so any registered name yields a valid
  /// document.
  std::string DumpJson() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace metrics
}  // namespace bolt
