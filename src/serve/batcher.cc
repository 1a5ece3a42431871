// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "serve/batcher.h"

#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace bolt {
namespace serve {

DynamicBatcher::DynamicBatcher(FairScheduler* scheduler,
                               EngineRegistry* registry,
                               const ModelTable* models,
                               BatcherOptions options)
    : scheduler_(scheduler),
      registry_(registry),
      models_(models),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : Clock::Real()) {}

DynamicBatcher::~DynamicBatcher() { Stop(); }

void DynamicBatcher::Start() {
  if (!workers_.empty()) return;
  const int n = options_.num_workers < 1 ? 1 : options_.num_workers;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void DynamicBatcher::Stop() {
  scheduler_->Shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::vector<Request> DynamicBatcher::PullBatch() {
  return scheduler_->NextBatch(
      [this](const std::string& model) -> int64_t {
        auto it = models_->find(model);
        return it == models_->end() ? 1
                                    : it->second.buckets.max_bucket();
      },
      options_.max_wait_us);
}

void DynamicBatcher::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch = PullBatch();
    if (batch.empty()) return;  // shut down and drained
    ProcessBatch(std::move(batch));
  }
}

int64_t DynamicBatcher::RunOnce() {
  std::vector<Request> batch = PullBatch();
  if (batch.empty()) return 0;
  return ProcessBatch(std::move(batch));
}

int64_t DynamicBatcher::ProcessBatch(std::vector<Request> batch) {
  static metrics::Counter& batches =
      metrics::Registry::Global().GetCounter("serve.batch.count");
  static metrics::Histogram& batch_rows =
      metrics::Registry::Global().GetHistogram("serve.batch.rows");
  static metrics::Histogram& padded_rows =
      metrics::Registry::Global().GetHistogram("serve.batch.padded_rows");
  static metrics::Histogram& exec_us =
      metrics::Registry::Global().GetHistogram("serve.batch.exec_us");
  static metrics::Histogram& request_us =
      metrics::Registry::Global().GetHistogram("serve.request.latency_us");
  static metrics::Counter& failures =
      metrics::Registry::Global().GetCounter("serve.batch.failed");

  int64_t rows = 0;
  for (const Request& r : batch) rows += r.rows();

  const auto fail_all = [&](const Status& status) -> int64_t {
    failures.Increment();
    for (Request& r : batch) r.promise.set_value(status);
    return rows;
  };

  const std::string& model = batch.front().model;
  auto it = models_->find(model);
  if (it == models_->end()) {
    return fail_all(
        Status::NotFound(StrCat("model not registered: ", model)));
  }
  const ModelSpec& spec = it->second;

  const std::optional<int64_t> bucket = spec.buckets.RoundUp(rows);
  if (!bucket.has_value()) {
    return fail_all(Status::InvalidArgument(
        StrCat("batch of ", rows, " rows exceeds the largest bucket (",
               spec.buckets.max_bucket(), ") of model ", model)));
  }

  Result<std::shared_ptr<const Engine>> engine =
      registry_->GetOrCompile(spec, *bucket);
  if (!engine.ok()) return fail_all(engine.status());

  std::vector<Tensor> inputs;
  inputs.reserve(batch.size());
  for (const Request& r : batch) inputs.push_back(r.input);

  const double t0 = clock_->NowUs();
  Result<std::vector<std::vector<Tensor>>> outputs = [&] {
    trace::Span span(
        trace::kPidServe, StrCat("serve.batch/", model), "serve",
        StrCat("{\"model\":\"", trace::JsonEscape(model),
               "\",\"requests\":", batch.size(), ",\"rows\":", rows,
               ",\"bucket\":", *bucket, "}"));
    return (*engine)->RunBatch(inputs);
  }();
  const double t1 = clock_->NowUs();

  if (!outputs.ok()) return fail_all(outputs.status());
  BOLT_CHECK(outputs->size() == batch.size());

  batches.Increment();
  batch_rows.Observe(static_cast<double>(rows));
  padded_rows.Observe(static_cast<double>(*bucket - rows));
  exec_us.Observe(t1 - t0);
  // Feed the scheduler's prediction loop: slack-aware dispatch and
  // admission control read this EWMA back per (model, bucket).
  registry_->RecordExecUs(model, *bucket, t1 - t0);
  for (size_t i = 0; i < batch.size(); ++i) {
    request_us.Observe(t1 - batch[i].enqueue_us);
    batch[i].promise.set_value(std::move((*outputs)[i]));
  }
  return rows;
}

}  // namespace serve
}  // namespace bolt
