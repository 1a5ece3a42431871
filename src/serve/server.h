// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The serving facade (docs/SERVING.md): register models, start the
// batcher workers, submit requests, collect futures.
//
//   Server server(options);
//   server.RegisterModel({.name = "mlp", .build_graph = ..., .buckets = ...});
//   server.Start();
//   auto future = server.Submit("mlp", input);       // [rows, ...tail]
//   Result<std::vector<Tensor>> outputs = future->get();
//
// Requests are scheduled through per-model queues under weighted
// deficit-round-robin (serve/scheduler.h), so one hot tenant can no
// longer head-of-line-block the others; same-model requests are
// coalesced into one batched execution, padded up to the nearest bucket
// batch size, and served from the LRU-bounded engine cache.  Requests
// carrying an SLO (ModelSpec::slo_us or the Submit override) are
// admission-controlled — predicted queue wait + predicted exec beyond
// the SLO fast-fails with a typed Rejected error — and dispatched early
// when their deadline slack runs out.  Per the two-tier numeric
// contract the demuxed outputs are bit-identical to running each
// request alone on the same engine (scalar and SIMD tiers alike), and
// match the per-request reference interpreter bit-exactly on the scalar
// tier / within ULP tolerance on the SIMD tier.

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/batcher.h"
#include "serve/model.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace bolt {
namespace serve {

struct ServerOptions {
  /// Bound on queued (not yet batched) requests across all models;
  /// Submit blocks (no-SLO requests) or fast-fails (SLO requests) when
  /// it is reached.
  size_t queue_capacity = 256;
  /// Bound on cached compiled engines across all models and buckets.
  size_t engine_cache_capacity = 8;
  BatcherOptions batcher;
};

class Server {
 public:
  using ResponseFuture = std::future<Result<std::vector<Tensor>>>;

  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a tenant model.  Must be called before Start().
  /// Validates the spec by building the graph at the largest bucket:
  /// exactly one graph input whose leading dimension equals the bucket
  /// batch size; records the input descriptor for Submit validation.
  /// A build_graph that fails or throws yields InvalidArgument.
  /// The spec's weight (> 0) and default SLO feed the fair scheduler.
  Status RegisterModel(ModelSpec spec);

  /// Spawns the batcher workers.  Idempotent.
  Status Start();
  /// Stops accepting requests, drains the queue, joins the workers.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Validates and enqueues a request.  `input` has shape
  /// [rows, ...tail] with 1 <= rows <= the model's largest bucket and
  /// tail/dtype matching the registered input.  `slo_us` overrides the
  /// model's default SLO (nullopt = the model default; 0 = no SLO).
  /// Without an SLO the call blocks while the queue is full
  /// (backpressure); with one it is admission-controlled and fast-fails
  /// with a typed Rejected{kPredictedLateness|kQueueFull} error instead
  /// of burning deadline budget in the queue.  The future yields one
  /// tensor per graph output, each sliced to this request's rows.
  Result<ResponseFuture> Submit(const std::string& model, Tensor input,
                                std::optional<int64_t> slo_us =
                                    std::nullopt);

  /// Synchronously compiles every registered model's bucket ladder
  /// through the single-flight registry (EngineRegistry::WarmAll).
  PrewarmStats Prewarm();

  /// Components, exposed for deterministic tests and benches (e.g.
  /// batcher().RunOnce() instead of Start()).
  FairScheduler& scheduler() { return scheduler_; }
  EngineRegistry& registry() { return registry_; }
  DynamicBatcher& batcher() { return batcher_; }
  const ModelTable& models() const { return models_; }

 private:
  /// Validates a request and builds it; nullopt-style error via Result.
  Result<Request> MakeRequest(const std::string& model, Tensor input);

  Clock* clock_;
  FairScheduler scheduler_;
  EngineRegistry registry_;
  ModelTable models_;
  DynamicBatcher batcher_;
  std::mutex mu_;  // guards models_ mutation and started_
  bool started_ = false;
  std::atomic<int64_t> next_id_{0};
};

}  // namespace serve
}  // namespace bolt
