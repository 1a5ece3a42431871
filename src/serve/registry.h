// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Multi-tenant engine cache for the serving layer: compiled engines keyed
// by (model, bucket batch size), bounded with LRU eviction.
//
// Compilation is *single-flight*: when several batcher workers miss on
// the same key concurrently, exactly one compiles while the rest block on
// the result — a thundering herd of redundant (expensive, profiler-
// touching) compiles is the classic serving-layer bug this guards
// against.  Engines are handed out as shared_ptr<const Engine>, so an
// eviction never invalidates an execution already in flight.
//
// GetOrCompile is the one place a served engine is built: it runs the
// model's build_graph for the bucket and Engine::Compile with the
// model's options.  WarmAll walks every model's bucket ladder through it
// before traffic arrives, so the first request to each (model, bucket)
// does not pay a compile (profiler included) inside its latency budget.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bolt/engine.h"
#include "common/status.h"
#include "serve/model.h"

namespace bolt {
namespace serve {

/// One WarmAll pass over the bucket ladders.
struct PrewarmStats {
  /// Buckets this pass compiled (registry misses it filled).
  int compiled = 0;
  /// Buckets already cached.
  int hits = 0;
  /// Buckets whose compile failed; retried on the next pass.
  int failed = 0;
};

class EngineRegistry {
 public:
  /// `capacity` bounds the number of cached engines (>= 1).
  explicit EngineRegistry(size_t capacity);

  /// `spec.build_graph(bucket)` with a thrown exception turned into an
  /// Internal error.
  static Result<Graph> BuildGraph(const ModelSpec& spec, int64_t bucket);

  /// Returns the cached engine for (spec.name, bucket), building the
  /// graph and compiling it with `spec.compile` on a miss.  Concurrent
  /// callers for the same key share one compilation; callers for
  /// different keys compile in parallel.  A failed compilation — error
  /// Status *or thrown exception* — is returned to every waiter but not
  /// cached, so a later call retries; a throwing build or compile never
  /// poisons the single-flight slot.  Thread-safe.
  Result<std::shared_ptr<const Engine>> GetOrCompile(const ModelSpec& spec,
                                                     int64_t bucket);

  /// Walks every model's bucket ladder (ascending) once, compiling each
  /// engine not yet cached.  A failed bucket is counted and skipped; the
  /// next pass retries it.  Safe to call concurrently with serving
  /// traffic: a request racing the walk joins the in-flight compile.
  /// Never throws.
  PrewarmStats WarmAll(const ModelTable& models);

  /// True when (model, batch) is currently cached (does not touch LRU
  /// recency).
  bool Contains(const std::string& model, int64_t batch) const;

  /// Folds one measured batch execution into the EWMA for
  /// (model, batch): ewma += kExecEwmaAlpha * (us - ewma), seeded with
  /// the first sample.  The EWMA lives with the registry entry but
  /// deliberately survives LRU eviction — the scheduler's slack and
  /// admission decisions need the estimate precisely when the engine is
  /// cold.
  void RecordExecUs(const std::string& model, int64_t batch, double us);

  /// Predicted execution time for a `batch`-row run of `model`: the
  /// exact bucket's EWMA when recorded, otherwise the recorded bucket
  /// nearest in log2(batch) (smaller bucket on ties), otherwise
  /// nullopt.
  std::optional<double> PredictedExecUs(const std::string& model,
                                        int64_t batch) const;

  /// EWMA smoothing factor for RecordExecUs.
  static constexpr double kExecEwmaAlpha = 0.25;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Cache keys ("model@batch"), most-recently-used first (tests).
  std::vector<std::string> KeysByRecency() const;

  static std::string MakeKey(const std::string& model, int64_t batch);

 private:
  struct Flight {
    std::condition_variable cv;
    bool done = false;
    Status error;
    std::shared_ptr<const Engine> engine;
  };

  /// Moves `key` to the LRU front.  Caller holds mu_.
  void Touch(const std::string& key);

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Most-recently-used at the front.
  std::list<std::pair<std::string, std::shared_ptr<const Engine>>> lru_;
  std::map<std::string, decltype(lru_)::iterator> index_;
  std::map<std::string, std::shared_ptr<Flight>> inflight_;
  /// model -> bucket -> EWMA of serve.batch.exec_us.  Survives eviction.
  std::map<std::string, std::map<int64_t, double>> exec_ewma_us_;
};

}  // namespace serve
}  // namespace bolt
