// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// SLO-aware fair scheduling for the serving layer (docs/SERVING.md).
//
// One shared FIFO would let a hot tenant head-of-line-block every other
// model, so FairScheduler keeps a per-model queue set behind
// deficit-round-robin (DRR): each registered model owns a
// FIFO deque and a row-denominated deficit counter; models take turns,
// each turn banking `max_rows_for(model) x weight` rows of credit (one
// full bucket at weight 1) and serving coalesced batches while the
// credit lasts.  A backlogged model's long-run share is proportional to
// its weight, and no model can exceed its share by more than roughly
// one quantum plus one max-bucket over any window (the classic DRR
// bound) — the property test_serve_sched pins.
//
// Dispatch is SLO-aware: while a partial bucket waits for stragglers,
// the wait deadline is min(front.enqueue + max_wait,
// front.deadline - predicted_exec), where predicted_exec is the
// EngineRegistry's EWMA of serve.batch.exec_us for the bucket the batch
// would run at.  When the front request's remaining slack no longer
// covers a predicted execution, the batch flushes early rather than
// waiting for rows that would make it late.
//
// Admission control fast-fails requests that carry an SLO the system
// already knows it cannot meet: predicted queue wait (backlog drain
// estimate across all models over the worker count) plus predicted exec
// exceeding the SLO yields a typed Rejected{kPredictedLateness} error;
// a full queue yields Rejected{kQueueFull}.
//
// All time flows through the injected Clock, so every dispatch decision
// is deterministic under tests/testing/fake_clock.h.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/clock.h"
#include "serve/request.h"

namespace bolt {
namespace serve {

/// Why admission control refused a request.
enum class RejectReason {
  /// Predicted queue wait + predicted batch exec already exceed the
  /// request's SLO; serving it would only waste capacity on a response
  /// that arrives late.
  kPredictedLateness,
  /// The scheduler's global request bound is reached.
  kQueueFull,
};

/// Builds the typed rejection error surfaced by Submit: code
/// kDeadlineExceeded for kPredictedLateness, kResourceExhausted for
/// kQueueFull, with a machine-parsable "rejected{...}" message prefix.
Status MakeRejected(RejectReason reason, std::string detail);

/// Recovers the rejection reason from a MakeRejected status; nullopt for
/// any other error (including plain validation failures).
std::optional<RejectReason> GetRejectReason(const Status& status);

struct SchedulerOptions {
  /// Bound on queued requests across all models (not rows).
  size_t capacity = 256;
  /// Batcher workers draining this scheduler; scales the predicted
  /// queue-wait used by admission control.
  int drain_workers = 1;
  /// Predicted execution time (us) of a `rows`-row batch of `model` —
  /// wired to EngineRegistry::PredictedExecUs via the bucket ladder.
  /// Empty / nullopt = no measurement yet (slack checks are skipped and
  /// admission assumes zero exec time).
  std::function<std::optional<double>(const std::string& model,
                                      int64_t rows)>
      exec_predictor;
  /// Time source (nullptr = the real steady clock).
  Clock* clock = nullptr;
};

class FairScheduler {
 public:
  explicit FairScheduler(SchedulerOptions options = {});

  /// Declares a model's scheduling weight (> 0, default 1) and its
  /// bucket cap in rows (used for the admission wait estimate).  Call
  /// before serving traffic for the model; unregistered models are
  /// lazily created at weight 1 on first push.
  void RegisterModel(const std::string& model, double weight,
                     int64_t cap_rows);

  /// Blocking push with backpressure (waits while full).  Returns false
  /// (with `r` intact) iff shut down.  Stamps r.enqueue_us/queue_seq.
  bool Push(Request& r);

  /// Non-blocking push: false when full or shut down.
  bool TryPush(Request& r);

  /// Admission verdict for a prospective request of `rows` rows with
  /// `slo_us` of budget: Ok, or a MakeRejected error.  Does not enqueue.
  Status Admit(const std::string& model, int64_t rows,
               double slo_us) const;

  /// Predicted time (us) to drain the current backlog: sum over models
  /// of (full buckets outstanding x predicted bucket exec), divided by
  /// drain_workers.  0 when idle or nothing is measured yet.
  double PredictedQueueWaitUs() const;

  /// Pulls the next batch under DRR: picks the next model whose deficit
  /// covers its front request (banking one quantum per turn), coalesces
  /// its FIFO run up to `max_rows_for(model)` rows, and waits for
  /// stragglers until the *front* request's latched deadline
  /// (enqueue + max_wait_us, shrunk to deadline - predicted_exec when
  /// the front carries an SLO).  Models whose front request has no
  /// remaining slack bypass the rotation (most urgent first).  Returns
  /// empty only when shut down and nothing is claimable.
  std::vector<Request> NextBatch(
      const std::function<int64_t(const std::string&)>& max_rows_for,
      int64_t max_wait_us);

  /// Stops accepting pushes and wakes every waiter.  Idempotent.
  void Shutdown();

  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  bool is_shutdown() const;
  /// Queued rows for one model (tests / introspection).
  int64_t QueuedRows(const std::string& model) const;

 private:
  struct ModelState {
    std::deque<Request> q;
    double weight = 1.0;
    /// Registered bucket cap (rows) for the admission wait estimate.
    int64_t cap_rows = 1;
    /// DRR credit in rows; may go negative when an oversized front
    /// request is taken (self-correcting over later turns).
    double deficit = 0.0;
    /// Set while a consumer assembles a batch for this model; the model
    /// leaves the rotation so a second worker never double-serves it.
    bool in_service = false;
  };

  ModelState& StateFor(const std::string& model);
  void PushLocked(Request& r);
  /// Rows the front run would coalesce to under `cap`.  Caller holds mu_.
  static int64_t CoalescibleRows(const ModelState& s, int64_t cap);
  /// Picks the model to serve: urgent (slack-exhausted) fronts first,
  /// then DRR.  Caller holds mu_; active_ must be non-empty.  Returns
  /// the model name; its state has been charged a quantum as needed.
  std::string PickModelLocked(
      const std::function<int64_t(const std::string&)>& max_rows_for);
  std::optional<double> PredictExec(const std::string& model,
                                    int64_t rows) const;
  double PredictedQueueWaitUsLocked() const;

  const SchedulerOptions options_;
  Clock* const clock_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::map<std::string, ModelState> models_;
  /// Rotation order over backlogged, not-in-service models.
  std::deque<std::string> active_;
  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace bolt
