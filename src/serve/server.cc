// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace bolt {
namespace serve {

namespace {

SchedulerOptions MakeSchedulerOptions(const ServerOptions& options,
                                      const EngineRegistry* registry,
                                      const ModelTable* models) {
  SchedulerOptions sched;
  sched.capacity = options.queue_capacity;
  sched.drain_workers = std::max(1, options.batcher.num_workers);
  sched.clock = options.batcher.clock;
  // Predict a rows-row batch by rounding up to the bucket it would run
  // at and reading the registry's per-(model, bucket) exec EWMA back.
  sched.exec_predictor =
      [registry, models](const std::string& model,
                         int64_t rows) -> std::optional<double> {
    auto it = models->find(model);
    if (it == models->end()) return std::nullopt;
    const BucketPolicy& buckets = it->second.buckets;
    std::optional<int64_t> bucket =
        buckets.RoundUp(std::min(rows, buckets.max_bucket()));
    if (!bucket.has_value()) return std::nullopt;
    return registry->PredictedExecUs(model, *bucket);
  };
  return sched;
}

}  // namespace

Server::Server(ServerOptions options)
    : clock_(options.batcher.clock != nullptr ? options.batcher.clock
                                              : Clock::Real()),
      scheduler_(MakeSchedulerOptions(options, &registry_, &models_)),
      registry_(options.engine_cache_capacity),
      batcher_(&scheduler_, &registry_, &models_, options.batcher) {}

Server::~Server() { Stop(); }

Status Server::RegisterModel(ModelSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition(
        "RegisterModel must precede Start()");
  }
  if (spec.name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (models_.count(spec.name) > 0) {
    return Status::InvalidArgument(
        StrCat("model already registered: ", spec.name));
  }
  if (!spec.build_graph) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, " has no build_graph"));
  }
  if (spec.buckets.empty()) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, " has an empty bucket set"));
  }
  if (!(spec.weight > 0.0)) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, " has non-positive scheduling weight ",
               spec.weight));
  }
  if (spec.slo_us < 0) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, " has negative slo_us ", spec.slo_us));
  }

  // Validate the spec at its largest bucket: the serving layer requires
  // exactly one graph input with a leading batch axis.
  const int64_t max_bucket = spec.buckets.max_bucket();
  Result<Graph> graph = EngineRegistry::BuildGraph(spec, max_bucket);
  if (!graph.ok()) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, ": build_graph(", max_bucket,
               ") failed: ", graph.status().message()));
  }
  if (graph->input_ids().size() != 1) {
    return Status::InvalidArgument(
        StrCat("model ", spec.name, " must have exactly one graph input, "
               "got ", graph->input_ids().size()));
  }
  const Node& input = graph->node(graph->input_ids()[0]);
  if (input.out_desc.rank() < 1 ||
      input.out_desc.shape[0] != max_bucket) {
    return Status::InvalidArgument(StrCat(
        "model ", spec.name, ": build_graph(", max_bucket,
        ") input must have leading batch dim ", max_bucket, ", got ",
        input.out_desc.ToString()));
  }
  spec.input_name = input.name;
  spec.input_desc = input.out_desc;

  scheduler_.RegisterModel(spec.name, spec.weight, max_bucket);
  models_.emplace(spec.name, std::move(spec));
  return Status::Ok();
}

Status Server::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.empty()) {
    return Status::FailedPrecondition("no models registered");
  }
  started_ = true;
  batcher_.Start();
  return Status::Ok();
}

void Server::Stop() { batcher_.Stop(); }

PrewarmStats Server::Prewarm() { return registry_.WarmAll(models_); }

Result<Request> Server::MakeRequest(const std::string& model,
                                    Tensor input) {
  static metrics::Counter& rejected =
      metrics::Registry::Global().GetCounter("serve.request.rejected");
  auto it = models_.find(model);
  if (it == models_.end()) {
    rejected.Increment();
    return Status::NotFound(StrCat("model not registered: ", model));
  }
  const ModelSpec& spec = it->second;
  const TensorDesc& want = spec.input_desc;
  const TensorDesc& got = input.desc();
  const auto mismatch = [&](const char* what) -> Status {
    rejected.Increment();
    return Status::InvalidArgument(
        StrCat("request for model ", model, ": ", what, " (got ",
               got.ToString(), ", model input is ", want.ToString(),
               ")"));
  };
  if (got.rank() != want.rank()) return mismatch("rank mismatch");
  for (int d = 1; d < want.rank(); ++d) {
    if (got.shape[d] != want.shape[d]) {
      return mismatch("tail shape mismatch");
    }
  }
  if (got.dtype != want.dtype) return mismatch("dtype mismatch");
  const int64_t rows = got.shape.empty() ? 0 : got.shape[0];
  if (rows < 1) return mismatch("batch dim must be >= 1");
  if (rows > spec.buckets.max_bucket()) {
    rejected.Increment();
    return Status::InvalidArgument(
        StrCat("request of ", rows, " rows exceeds the largest bucket (",
               spec.buckets.max_bucket(), ") of model ", model));
  }

  static metrics::Counter& submitted =
      metrics::Registry::Global().GetCounter("serve.request.submitted");
  submitted.Increment();
  Request r;
  r.model = model;
  r.input = std::move(input);
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Result<Server::ResponseFuture> Server::Submit(
    const std::string& model, Tensor input,
    std::optional<int64_t> slo_us) {
  Result<Request> request = MakeRequest(model, std::move(input));
  if (!request.ok()) return request.status();
  auto it = models_.find(model);
  const int64_t slo = slo_us.has_value() ? *slo_us : it->second.slo_us;
  if (slo < 0) {
    return Status::InvalidArgument(
        StrCat("negative slo_us ", slo, " for model ", model));
  }
  ResponseFuture future = request->promise.get_future();

  if (slo > 0) {
    // SLO path: admission-control up front and fast-fail rather than
    // letting a doomed request burn its deadline budget in the queue.
    Status verdict = scheduler_.Admit(model, request->rows(),
                                      static_cast<double>(slo));
    if (!verdict.ok()) return verdict;
    request->deadline_us = clock_->NowUs() + static_cast<double>(slo);
    if (!scheduler_.TryPush(*request)) {
      if (scheduler_.is_shutdown()) {
        return Status::FailedPrecondition("server is shut down");
      }
      return MakeRejected(
          RejectReason::kQueueFull,
          StrCat("request queue filled before enqueue (capacity ",
                 scheduler_.capacity(), ")"));
    }
    return future;
  }

  if (!scheduler_.Push(*request)) {
    return Status::FailedPrecondition("server is shut down");
  }
  return future;
}

}  // namespace serve
}  // namespace bolt
