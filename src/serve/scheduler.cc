// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace bolt {
namespace serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const char* RejectPrefix(RejectReason reason) {
  switch (reason) {
    case RejectReason::kPredictedLateness:
      return "rejected{predicted_lateness}: ";
    case RejectReason::kQueueFull:
      return "rejected{queue_full}: ";
  }
  return "rejected{unknown}: ";
}

}  // namespace

Status MakeRejected(RejectReason reason, std::string detail) {
  const std::string msg = StrCat(RejectPrefix(reason), detail);
  switch (reason) {
    case RejectReason::kPredictedLateness:
      return Status::DeadlineExceeded(msg);
    case RejectReason::kQueueFull:
      return Status::ResourceExhausted(msg);
  }
  return Status::Internal(msg);
}

std::optional<RejectReason> GetRejectReason(const Status& status) {
  if (status.ok()) return std::nullopt;
  for (RejectReason reason :
       {RejectReason::kPredictedLateness, RejectReason::kQueueFull}) {
    const std::string prefix = RejectPrefix(reason);
    if (status.message().compare(0, prefix.size(), prefix) == 0) {
      return reason;
    }
  }
  return std::nullopt;
}

FairScheduler::FairScheduler(SchedulerOptions options)
    : options_([&] {
        SchedulerOptions o = std::move(options);
        if (o.capacity == 0) o.capacity = 1;
        if (o.drain_workers < 1) o.drain_workers = 1;
        return o;
      }()),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()) {}

void FairScheduler::RegisterModel(const std::string& model, double weight,
                                  int64_t cap_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelState& s = StateFor(model);
  s.weight = weight > 0.0 ? weight : 1.0;
  s.cap_rows = std::max<int64_t>(1, cap_rows);
}

FairScheduler::ModelState& FairScheduler::StateFor(
    const std::string& model) {
  return models_[model];  // default-constructed at weight 1 on first use
}

void FairScheduler::PushLocked(Request& r) {
  r.enqueue_us = clock_->NowUs();
  r.queue_seq = ++next_seq_;
  ModelState& s = StateFor(r.model);
  s.cap_rows = std::max(s.cap_rows, std::max<int64_t>(1, r.rows()));
  s.q.push_back(std::move(r));
  ++size_;
  if (!s.in_service && s.q.size() == 1) {
    // First request of a previously idle model: join the rotation.  An
    // in-service model is deliberately kept out — its consumer is
    // already assembling a batch and sees the new arrival directly.
    active_.push_back(s.q.front().model);
  }
  not_empty_.notify_all();
}

bool FairScheduler::Push(Request& r) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock,
                 [&] { return size_ < options_.capacity || shutdown_; });
  if (shutdown_) return false;
  PushLocked(r);
  return true;
}

bool FairScheduler::TryPush(Request& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || size_ >= options_.capacity) return false;
  PushLocked(r);
  return true;
}

std::optional<double> FairScheduler::PredictExec(const std::string& model,
                                                 int64_t rows) const {
  if (!options_.exec_predictor) return std::nullopt;
  return options_.exec_predictor(model, rows);
}

double FairScheduler::PredictedQueueWaitUsLocked() const {
  double total_us = 0.0;
  for (const auto& [model, s] : models_) {
    if (s.q.empty()) continue;
    int64_t rows = 0;
    for (const Request& r : s.q) rows += std::max<int64_t>(r.rows(), 1);
    const int64_t cap = std::max<int64_t>(1, s.cap_rows);
    const int64_t batches = (rows + cap - 1) / cap;
    const std::optional<double> exec_us = PredictExec(model, cap);
    if (exec_us.has_value()) {
      total_us += static_cast<double>(batches) * *exec_us;
    }
  }
  return total_us / static_cast<double>(options_.drain_workers);
}

double FairScheduler::PredictedQueueWaitUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PredictedQueueWaitUsLocked();
}

Status FairScheduler::Admit(const std::string& model, int64_t rows,
                            double slo_us) const {
  static metrics::Counter& accepted =
      metrics::Registry::Global().GetCounter("serve.admit.accepted");
  static metrics::Counter& rejected_late = metrics::Registry::Global()
      .GetCounter("serve.admit.rejected.lateness");
  static metrics::Counter& rejected_full = metrics::Registry::Global()
      .GetCounter("serve.admit.rejected.queue_full");

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("scheduler is shut down");
  }
  if (size_ >= options_.capacity) {
    rejected_full.Increment();
    return MakeRejected(
        RejectReason::kQueueFull,
        StrCat("queue is full (capacity ", options_.capacity, ")"));
  }
  const double wait_us = PredictedQueueWaitUsLocked();
  const double exec_us =
      PredictExec(model, std::max<int64_t>(rows, 1)).value_or(0.0);
  if (wait_us + exec_us > slo_us) {
    rejected_late.Increment();
    return MakeRejected(
        RejectReason::kPredictedLateness,
        StrCat("predicted wait ", wait_us, " us + exec ", exec_us,
               " us exceeds the ", slo_us, " us SLO for model ", model));
  }
  accepted.Increment();
  return Status::Ok();
}

int64_t FairScheduler::CoalescibleRows(const ModelState& s, int64_t cap) {
  int64_t rows = 0;
  for (const Request& r : s.q) {
    const int64_t b = std::max<int64_t>(r.rows(), 1);
    // The front request is always taken, even oversized.
    if (rows > 0 && rows + b > cap) break;
    rows += b;
    if (rows >= cap) break;
  }
  return rows;
}

std::string FairScheduler::PickModelLocked(
    const std::function<int64_t(const std::string&)>& max_rows_for) {
  static metrics::Counter& rotations =
      metrics::Registry::Global().GetCounter("serve.sched.rotations");
  static metrics::Counter& urgent_picks =
      metrics::Registry::Global().GetCounter("serve.sched.pick.urgent");

  // Urgency bypass: a front request whose remaining slack no longer
  // covers a predicted execution must dispatch now; DRR order would only
  // make it later.  Most urgent (earliest deadline) first.  Bounded in
  // practice: admission control only lets requests in while their SLO
  // was predicted feasible.
  const double now_us = clock_->NowUs();
  std::string urgent;
  double urgent_deadline = kInf;
  for (const std::string& model : active_) {
    const ModelState& s = models_.at(model);
    const double deadline = s.q.front().deadline_us;
    if (!std::isfinite(deadline) || deadline >= urgent_deadline) continue;
    const int64_t cap = std::max<int64_t>(1, max_rows_for(model));
    const double exec_us =
        PredictExec(model, CoalescibleRows(s, cap)).value_or(0.0);
    if (deadline - exec_us <= now_us) {
      urgent = model;
      urgent_deadline = deadline;
    }
  }
  if (!urgent.empty()) {
    urgent_picks.Increment();
    active_.erase(std::find(active_.begin(), active_.end(), urgent));
    return urgent;
  }

  // DRR: bank one quantum per visit until the front batch is covered;
  // rotate past models still in the red (their credit persists).
  const size_t rotation = active_.size();
  for (size_t i = 0; i < rotation; ++i) {
    const std::string model = active_.front();
    ModelState& s = models_.at(model);
    const int64_t cap = std::max<int64_t>(1, max_rows_for(model));
    const int64_t need =
        std::min<int64_t>(std::max<int64_t>(s.q.front().rows(), 1), cap);
    if (s.deficit < static_cast<double>(need)) {
      s.deficit += static_cast<double>(cap) * s.weight;
    }
    if (s.deficit >= static_cast<double>(need)) {
      active_.pop_front();
      return model;
    }
    // Not enough credit even after this turn's quantum (weight < 1 or
    // an oversized front): carry the credit and rotate.
    rotations.Increment();
    active_.push_back(model);
    active_.pop_front();
  }
  // Every active model is still in the red (pathologically small
  // quantum): serve the front anyway; its deficit goes negative and
  // self-corrects over later turns.
  const std::string model = active_.front();
  active_.pop_front();
  return model;
}

std::vector<Request> FairScheduler::NextBatch(
    const std::function<int64_t(const std::string&)>& max_rows_for,
    int64_t max_wait_us) {
  static metrics::Counter& dispatch_full = metrics::Registry::Global()
      .GetCounter("serve.sched.dispatch.full");
  static metrics::Counter& dispatch_deadline = metrics::Registry::Global()
      .GetCounter("serve.sched.dispatch.deadline");
  static metrics::Counter& dispatch_slack = metrics::Registry::Global()
      .GetCounter("serve.sched.dispatch.slack");

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    clock_->WaitUntil(not_empty_, lock, kInf,
                      [&] { return shutdown_ || !active_.empty(); });
    if (active_.empty()) {
      // Shut down with nothing claimable by this consumer (any requests
      // still counted in size_ belong to in-service models and are
      // drained by the workers serving them).
      return {};
    }

    const std::string model = PickModelLocked(max_rows_for);
    ModelState& s = models_.at(model);
    s.in_service = true;
    const int64_t cap = std::max<int64_t>(1, max_rows_for(model));

    // Latch the straggler deadline to the *front* request once; later
    // arrivals coalescing into this batch never move it.  The in_service
    // flag keeps competing consumers off this model, so the front cannot
    // be stolen (queue_seq guards the invariant anyway).
    const uint64_t front_seq = s.q.front().queue_seq;
    const double wait_deadline_us =
        s.q.front().enqueue_us + static_cast<double>(max_wait_us);
    const double front_deadline_us = s.q.front().deadline_us;

    bool slack_flush = false;
    while (!shutdown_ && !s.q.empty() &&
           s.q.front().queue_seq == front_seq) {
      const int64_t have = CoalescibleRows(s, cap);
      if (have >= cap) break;
      // SLO slack: re-predicted each wakeup at the rows the batch holds
      // now — the bucket (and so the predicted exec) grows with it.
      double deadline_us = wait_deadline_us;
      if (std::isfinite(front_deadline_us)) {
        const std::optional<double> exec_us = PredictExec(model, have);
        if (exec_us.has_value()) {
          deadline_us =
              std::min(deadline_us, front_deadline_us - *exec_us);
        }
      }
      if (clock_->NowUs() >= deadline_us) {
        slack_flush = deadline_us < wait_deadline_us;
        break;
      }
      const size_t seen = s.q.size();
      clock_->WaitUntil(not_empty_, lock, deadline_us, [&] {
        return shutdown_ || s.q.size() != seen;
      });
    }

    // Extract the FIFO run (the whole deque is one model), never
    // splitting a request; an oversized front is taken alone.
    std::vector<Request> batch;
    int64_t rows = 0;
    while (!s.q.empty()) {
      const int64_t b = std::max<int64_t>(s.q.front().rows(), 1);
      if (!batch.empty() && rows + b > cap) break;
      batch.push_back(std::move(s.q.front()));
      s.q.pop_front();
      rows += b;
      if (rows >= cap) break;
    }

    s.in_service = false;
    size_ -= batch.size();
    s.deficit -= static_cast<double>(rows);
    if (s.q.empty()) {
      s.deficit = 0.0;  // idle models do not bank credit
    } else {
      const int64_t next_need = std::min<int64_t>(
          std::max<int64_t>(s.q.front().rows(), 1), cap);
      if (s.deficit >= static_cast<double>(next_need)) {
        active_.push_front(model);  // same turn: credit still covers it
      } else {
        active_.push_back(model);
      }
      not_empty_.notify_all();  // other consumers can claim it
    }
    if (!batch.empty()) {
      (rows >= cap ? dispatch_full
                   : slack_flush ? dispatch_slack : dispatch_deadline)
          .Increment();
      not_full_.notify_all();
      return batch;
    }
    // Raced to an emptied model (defensive; in_service should prevent
    // it): go around and re-pick.
  }
}

void FairScheduler::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t FairScheduler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

bool FairScheduler::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

int64_t FairScheduler::QueuedRows(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end()) return 0;
  int64_t rows = 0;
  for (const Request& r : it->second.q) {
    rows += std::max<int64_t>(r.rows(), 1);
  }
  return rows;
}

}  // namespace serve
}  // namespace bolt
