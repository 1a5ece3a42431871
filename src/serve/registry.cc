// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "serve/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace bolt {
namespace serve {

namespace {

/// Runs `body`, turning a thrown exception into an Internal error that
/// names `what`.  A build or compile that throws (e.g. a BOLT_CHECK deep
/// in the pipeline) must surface like any failed Status.
template <typename Body>
auto Guarded(const std::string& what, Body&& body) -> decltype(body()) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Status::Internal(StrCat(what, " threw: ", e.what()));
  } catch (...) {
    return Status::Internal(StrCat(what, " threw a non-exception"));
  }
}

}  // namespace

std::string EngineRegistry::MakeKey(const std::string& model,
                                    int64_t batch) {
  return StrCat(model, "@", batch);
}

EngineRegistry::EngineRegistry(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void EngineRegistry::Touch(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
}

Result<Graph> EngineRegistry::BuildGraph(const ModelSpec& spec,
                                         int64_t bucket) {
  return Guarded(StrCat("build_graph for ", MakeKey(spec.name, bucket)),
                 [&] { return spec.build_graph(bucket); });
}

Result<std::shared_ptr<const Engine>> EngineRegistry::GetOrCompile(
    const ModelSpec& spec, int64_t bucket) {
  static metrics::Counter& hits =
      metrics::Registry::Global().GetCounter("serve.engine.hit");
  static metrics::Counter& misses =
      metrics::Registry::Global().GetCounter("serve.engine.miss");
  static metrics::Counter& evictions =
      metrics::Registry::Global().GetCounter("serve.engine.evict");

  const std::string key = MakeKey(spec.name, bucket);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto cached = index_.find(key);
    if (cached != index_.end()) {
      Touch(key);
      hits.Increment();
      return cached->second->second;
    }
    auto flying = inflight_.find(key);
    if (flying == inflight_.end()) break;
    // Another worker is compiling this key: wait for its verdict.  On a
    // compile failure, loop and retry (possibly becoming the compiler).
    std::shared_ptr<Flight> flight = flying->second;
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->engine != nullptr) {
      hits.Increment();
      return flight->engine;
    }
    if (!flight->error.ok()) return flight->error;
  }

  // This caller compiles.  The flight entry keeps late arrivals parked
  // while the (expensive) compile runs outside the lock.
  auto flight = std::make_shared<Flight>();
  inflight_[key] = flight;
  misses.Increment();
  lock.unlock();

  // A build or compile that throws must complete the flight like any
  // failed Status, or every waiter parks forever on a slot nobody owns.
  Result<Engine> compiled =
      Guarded(StrCat("engine compile for ", key), [&]() -> Result<Engine> {
        Result<Graph> graph = BuildGraph(spec, bucket);
        if (!graph.ok()) return graph.status();
        return Engine::Compile(*graph, spec.compile);
      });

  lock.lock();
  inflight_.erase(key);
  if (!compiled.ok()) {
    flight->error = compiled.status();
    flight->done = true;
    flight->cv.notify_all();
    return compiled.status();
  }
  auto engine =
      std::make_shared<const Engine>(std::move(compiled).value());
  lru_.emplace_front(key, engine);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions.Increment();
  }
  flight->engine = engine;
  flight->done = true;
  flight->cv.notify_all();
  return engine;
}

PrewarmStats EngineRegistry::WarmAll(const ModelTable& models) {
  static metrics::Counter& compiled =
      metrics::Registry::Global().GetCounter("serve.prewarm.compiled");
  static metrics::Counter& hits =
      metrics::Registry::Global().GetCounter("serve.prewarm.hit");
  static metrics::Counter& failed =
      metrics::Registry::Global().GetCounter("serve.prewarm.failed");

  PrewarmStats stats;
  for (const auto& [name, spec] : models) {
    for (int64_t bucket : spec.buckets.buckets()) {
      if (Contains(name, bucket)) {
        ++stats.hits;
        hits.Increment();
        continue;
      }
      trace::Span span(
          trace::kPidServe, StrCat("serve.prewarm/", name), "serve",
          StrCat("{\"model\":\"", trace::JsonEscape(name),
                 "\",\"bucket\":", bucket, "}"));
      if (GetOrCompile(spec, bucket).ok()) {
        ++stats.compiled;
        compiled.Increment();
      } else {
        ++stats.failed;
        failed.Increment();
      }
    }
  }
  return stats;
}

bool EngineRegistry::Contains(const std::string& model,
                              int64_t batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(MakeKey(model, batch)) > 0;
}

void EngineRegistry::RecordExecUs(const std::string& model, int64_t batch,
                                  double us) {
  if (!(us >= 0.0)) return;  // rejects negatives and NaN
  std::lock_guard<std::mutex> lock(mu_);
  auto& per_bucket = exec_ewma_us_[model];
  auto it = per_bucket.find(batch);
  if (it == per_bucket.end()) {
    per_bucket.emplace(batch, us);
  } else {
    it->second += kExecEwmaAlpha * (us - it->second);
  }
}

std::optional<double> EngineRegistry::PredictedExecUs(
    const std::string& model, int64_t batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto per_model = exec_ewma_us_.find(model);
  if (per_model == exec_ewma_us_.end() || per_model->second.empty()) {
    return std::nullopt;
  }
  const auto& per_bucket = per_model->second;
  auto exact = per_bucket.find(batch);
  if (exact != per_bucket.end()) return exact->second;
  // Nearest recorded bucket by |log2 ratio|; ties go to the smaller
  // bucket (map order makes the first minimum the smaller one).
  const double want = std::log2(static_cast<double>(
      std::max<int64_t>(batch, 1)));
  double best_dist = std::numeric_limits<double>::infinity();
  double best_us = 0.0;
  for (const auto& [bucket, us] : per_bucket) {
    const double dist = std::abs(
        std::log2(static_cast<double>(bucket)) - want);
    if (dist < best_dist) {
      best_dist = dist;
      best_us = us;
    }
  }
  return best_us;
}

size_t EngineRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<std::string> EngineRegistry::KeysByRecency() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const auto& [key, engine] : lru_) keys.push_back(key);
  return keys;
}

}  // namespace serve
}  // namespace bolt
