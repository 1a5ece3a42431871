// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Deterministic tests for the SLO-aware fair scheduler
// (docs/SERVING.md): the FakeClock harness itself, single-model batch
// formation (FIFO coalescing, never-split, deadline and straggler
// flushes), DRR rotation order and the bounded-deficit fairness
// property, weighted shares, the urgency bypass, slack-aware early
// dispatch, admission-control accept/reject matrices, typed rejections,
// the registry's ladder prewarm (walked exactly once, throwing compiles
// never poison the single-flight slot), a throwing build_graph at
// RegisterModel, and a multi-tenant multi-worker
// stress run (the tsan target).  No assertion in this file depends on
// wall-clock time; every dispatch decision is driven through
// tests/testing/fake_clock.h.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bolt/engine.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "serve/bucketing.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "testing/fake_clock.h"

namespace bolt {
namespace serve {
namespace {

using bolt::testing::FakeClock;

int64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

/// A rows-row request for `model`; the tensor payload is never executed
/// in the scheduler-only tests, only its leading dimension matters.
Request SchedRequest(const std::string& model, int64_t rows,
                     double deadline_us =
                         std::numeric_limits<double>::infinity()) {
  Request r;
  r.model = model;
  r.input = Tensor(TensorDesc(DType::kFloat32, {rows, 4},
                              Layout::kRowMajor));
  r.deadline_us = deadline_us;
  return r;
}

int64_t BatchRows(const std::vector<Request>& batch) {
  int64_t rows = 0;
  for (const Request& r : batch) rows += r.rows();
  return rows;
}

constexpr int64_t kNoWait = 0;

int64_t CapFour(const std::string&) { return 4; }
int64_t CapEight(const std::string&) { return 8; }

// ---------------------------------------------------------------------
// FakeClock
// ---------------------------------------------------------------------

TEST(FakeClockTest, AutoAdvanceJumpsToTheDeadline) {
  FakeClock clock(/*start_us=*/100.0, /*auto_advance=*/true);
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_FALSE(clock.WaitUntil(cv, lock, 600.0, [] { return false; }));
  EXPECT_EQ(clock.NowUs(), 600.0);
  // A satisfied predicate returns without moving time.
  EXPECT_TRUE(clock.WaitUntil(cv, lock, 900.0, [] { return true; }));
  EXPECT_EQ(clock.NowUs(), 600.0);
}

TEST(FakeClockTest, ManualAdvanceWakesABlockedWaiter) {
  FakeClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool flag = false;

  auto waiter = std::async(std::launch::async, [&] {
    std::unique_lock<std::mutex> lock(mu);
    return clock.WaitUntil(cv, lock, 1000.0, [&] { return flag; });
  });
  clock.Advance(400.0);  // below the deadline: waiter stays parked
  {
    std::lock_guard<std::mutex> g(mu);
    flag = true;
  }
  cv.notify_all();
  EXPECT_TRUE(waiter.get());  // woke via the predicate, not the deadline

  auto timed_out = std::async(std::launch::async, [&] {
    std::unique_lock<std::mutex> lock(mu);
    return clock.WaitUntil(cv, lock, 1000.0, [] { return false; });
  });
  clock.Advance(700.0);  // 400 + 700 >= 1000: deadline fires
  EXPECT_FALSE(timed_out.get());
  EXPECT_EQ(clock.NowUs(), 1100.0);
}

// ---------------------------------------------------------------------
// Typed rejections
// ---------------------------------------------------------------------

TEST(RejectionTest, MakeRejectedRoundTripsThroughGetRejectReason) {
  const Status late =
      MakeRejected(RejectReason::kPredictedLateness, "too slow");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(GetRejectReason(late), RejectReason::kPredictedLateness);

  const Status full = MakeRejected(RejectReason::kQueueFull, "no room");
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(GetRejectReason(full), RejectReason::kQueueFull);

  // Non-rejection errors do not parse as rejections.
  EXPECT_EQ(GetRejectReason(Status::Ok()), std::nullopt);
  EXPECT_EQ(GetRejectReason(Status::ResourceExhausted("plain full")),
            std::nullopt);
  EXPECT_EQ(GetRejectReason(Status::DeadlineExceeded("plain late")),
            std::nullopt);
}

// ---------------------------------------------------------------------
// Deficit round-robin
// ---------------------------------------------------------------------

FairScheduler MakeScheduler(FakeClock* clock, size_t capacity = 256) {
  SchedulerOptions o;
  o.capacity = capacity;
  o.clock = clock;
  return FairScheduler(o);
}

TEST(FairSchedulerTest, EqualWeightsRotateRoundRobinUnderSaturation) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  for (const char* m : {"a", "b", "c"}) sched.RegisterModel(m, 1.0, 4);
  for (int round = 0; round < 5; ++round) {
    for (const char* m : {"a", "b", "c"}) {
      Request r = SchedRequest(m, 4);
      ASSERT_TRUE(sched.Push(r));
    }
  }

  std::vector<std::string> order;
  for (int i = 0; i < 15; ++i) {
    std::vector<Request> batch = sched.NextBatch(CapFour, kNoWait);
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch[0].model);
  }
  const std::vector<std::string> cycle = {"a", "b", "c"};
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)],
              cycle[static_cast<size_t>(i % 3)])
        << "dispatch " << i;
  }
  EXPECT_EQ(sched.size(), 0u);
}

TEST(FairSchedulerTest, WeightTwoTenantGetsTwoThirdsOfRows) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  sched.RegisterModel("heavy", 2.0, 4);
  sched.RegisterModel("light", 1.0, 4);
  for (int i = 0; i < 20; ++i) {
    Request r = SchedRequest("heavy", 4);
    ASSERT_TRUE(sched.Push(r));
  }
  for (int i = 0; i < 10; ++i) {
    Request r = SchedRequest("light", 4);
    ASSERT_TRUE(sched.Push(r));
  }

  // The DRR bound: over ANY dispatch prefix while both stay backlogged,
  // no tenant exceeds its weight share of served rows by more than one
  // quantum plus one max bucket (8 rows here).
  constexpr double kBoundRows = 8.0;
  int64_t heavy_rows = 0, light_rows = 0;
  for (int i = 0; i < 30; ++i) {
    std::vector<Request> batch = sched.NextBatch(CapFour, kNoWait);
    ASSERT_FALSE(batch.empty());
    (batch[0].model == "heavy" ? heavy_rows : light_rows) +=
        BatchRows(batch);
    const double total = static_cast<double>(heavy_rows + light_rows);
    EXPECT_LE(static_cast<double>(heavy_rows),
              total * (2.0 / 3.0) + kBoundRows)
        << "after dispatch " << i;
    EXPECT_LE(static_cast<double>(light_rows),
              total * (1.0 / 3.0) + kBoundRows)
        << "after dispatch " << i;
  }
  EXPECT_EQ(heavy_rows, 80);
  EXPECT_EQ(light_rows, 40);
}

TEST(FairSchedulerTest, HotTenantCannotStarveABackgroundTenant) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  sched.RegisterModel("hot", 1.0, 4);
  sched.RegisterModel("bg", 1.0, 4);
  // The hot tenant floods first; the background tenant trickles in one
  // small run.
  for (int i = 0; i < 20; ++i) {
    Request r = SchedRequest("hot", 1);
    ASSERT_TRUE(sched.Push(r));
  }
  for (int i = 0; i < 3; ++i) {
    Request r = SchedRequest("bg", 1);
    ASSERT_TRUE(sched.Push(r));
  }

  // The background tenant is served on the very next rotation turn, not
  // after the hot backlog drains.
  std::vector<Request> first = sched.NextBatch(CapFour, kNoWait);
  EXPECT_EQ(first[0].model, "hot");
  std::vector<Request> second = sched.NextBatch(CapFour, kNoWait);
  EXPECT_EQ(second[0].model, "bg");
  EXPECT_EQ(BatchRows(second), 3);
}

TEST(FairSchedulerTest, ShutdownDrainsThenReturnsEmpty) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  Request a = SchedRequest("m", 1), b = SchedRequest("m", 1);
  ASSERT_TRUE(sched.Push(a));
  ASSERT_TRUE(sched.Push(b));
  sched.Shutdown();
  Request late = SchedRequest("m", 1);
  EXPECT_FALSE(sched.Push(late));
  EXPECT_FALSE(sched.TryPush(late));
  EXPECT_EQ(sched.NextBatch(CapEight, kNoWait).size(), 2u);
  EXPECT_TRUE(sched.NextBatch(CapEight, kNoWait).empty());
}

TEST(FairSchedulerTest, TryPushShedsWhenFull) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock, /*capacity=*/2);
  Request a = SchedRequest("m", 1), b = SchedRequest("n", 1),
          c = SchedRequest("m", 1);
  EXPECT_TRUE(sched.TryPush(a));
  EXPECT_TRUE(sched.TryPush(b));
  EXPECT_FALSE(sched.TryPush(c));
  EXPECT_EQ(sched.size(), 2u);
}

// ---------------------------------------------------------------------
// Batch formation (one model)
// ---------------------------------------------------------------------

TEST(FairSchedulerTest, CoalescesAFifoRunUpToTheCap) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  for (int64_t rows : {2, 2, 4, 1}) {
    Request r = SchedRequest("m", rows);
    ASSERT_TRUE(sched.Push(r));
  }
  std::vector<Request> batch = sched.NextBatch(CapEight, kNoWait);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].queue_seq, batch[0].queue_seq + i) << "request " << i;
  }
  EXPECT_EQ(BatchRows(batch), 8);
  EXPECT_EQ(sched.size(), 1u);

  batch = sched.NextBatch(CapEight, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].rows(), 1);
}

TEST(FairSchedulerTest, NeverSplitsARequestAcrossBatches) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  Request a = SchedRequest("m", 3), b = SchedRequest("m", 3);
  ASSERT_TRUE(sched.Push(a));
  ASSERT_TRUE(sched.Push(b));
  std::vector<Request> first = sched.NextBatch(CapFour, kNoWait);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].rows(), 3);
  std::vector<Request> second = sched.NextBatch(CapFour, kNoWait);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].rows(), 3);
}

TEST(FairSchedulerTest, OversizedFrontRequestIsTakenAlone) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  Request big = SchedRequest("m", 5), small = SchedRequest("m", 1);
  ASSERT_TRUE(sched.Push(big));
  ASSERT_TRUE(sched.Push(small));
  const auto cap2 = [](const std::string&) -> int64_t { return 2; };
  std::vector<Request> batch = sched.NextBatch(cap2, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].rows(), 5);
}

TEST(FairSchedulerTest, DeadlineFlushesPartialBatch) {
  FakeClock clock(/*start_us=*/0.0, /*auto_advance=*/true);
  FairScheduler sched = MakeScheduler(&clock);
  Request r = SchedRequest("m", 1);
  ASSERT_TRUE(sched.Push(r));
  std::vector<Request> batch =
      sched.NextBatch(CapEight, /*max_wait_us=*/20000);
  ASSERT_EQ(batch.size(), 1u);
  // Flushed exactly at the straggler deadline (enqueue + max_wait), not
  // hung waiting for a full bucket: auto-advance jumped the fake clock
  // to the moment the dispatch decision fired.
  EXPECT_EQ(clock.NowUs(), 20000.0);
}

TEST(FairSchedulerTest, StragglerWaitUsesFrontDeadlineAfterCoalescing) {
  // The straggler wait runs out at front.enqueue + max_wait even when a
  // later arrival coalesces into the batch mid-wait.  Re-deriving the
  // deadline from the newest arrival would move the flush to t=1600 and
  // leave the consumer waiting at t=1000 (caught by the escape hatch).
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  Request front = SchedRequest("m", 1);
  ASSERT_TRUE(sched.Push(front));  // enqueued at t=0, deadline t=1000

  auto consumer = std::async(std::launch::async, [&sched] {
    return sched.NextBatch(CapEight, /*max_wait_us=*/1000);
  });
  clock.Advance(600);
  Request straggler = SchedRequest("m", 1);
  ASSERT_TRUE(sched.Push(straggler));  // enqueued at t=600, coalesces
  clock.Advance(400);                  // t=1000: the front deadline fires

  // Escape hatch only: the flush decision is asserted on the fake clock,
  // never on wall time.
  if (consumer.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    sched.Shutdown();  // unblock the consumer so the test fails, not hangs
    FAIL() << "NextBatch did not flush at the front request's deadline";
  }
  std::vector<Request> batch = consumer.get();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(BatchRows(batch), 2);
  EXPECT_EQ(clock.NowUs(), 1000.0);
}

// ---------------------------------------------------------------------
// SLO-aware dispatch
// ---------------------------------------------------------------------

TEST(FairSchedulerTest, UrgentFrontDeadlineBypassesRotationOrder) {
  FakeClock clock;
  SchedulerOptions o;
  o.clock = &clock;
  o.exec_predictor = [](const std::string&, int64_t) {
    return std::optional<double>(100.0);
  };
  FairScheduler sched(o);
  sched.RegisterModel("a", 1.0, 4);
  sched.RegisterModel("b", 1.0, 4);

  Request relaxed = SchedRequest("a", 1);
  ASSERT_TRUE(sched.Push(relaxed));
  // b joined the rotation after a, but its front deadline (t=50) minus
  // the predicted exec (100us) leaves no slack at t=0.
  Request urgent = SchedRequest("b", 1, /*deadline_us=*/50.0);
  ASSERT_TRUE(sched.Push(urgent));

  const int64_t urgent_before = CounterValue("serve.sched.pick.urgent");
  std::vector<Request> batch = sched.NextBatch(CapFour, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].model, "b");
  EXPECT_EQ(CounterValue("serve.sched.pick.urgent") - urgent_before, 1);

  batch = sched.NextBatch(CapFour, kNoWait);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].model, "a");
}

TEST(FairSchedulerTest, SlackExhaustionFlushesBeforeTheStragglerWait) {
  FakeClock clock(/*start_us=*/0.0, /*auto_advance=*/true);
  SchedulerOptions o;
  o.clock = &clock;
  o.exec_predictor = [](const std::string&, int64_t) {
    return std::optional<double>(1000.0);
  };
  FairScheduler sched(o);
  sched.RegisterModel("m", 1.0, 8);

  // SLO deadline t=5000, predicted exec 1000us: the straggler wait must
  // give up at t=4000, far before the 20000us max-wait deadline.
  Request r = SchedRequest("m", 1, /*deadline_us=*/5000.0);
  ASSERT_TRUE(sched.Push(r));

  const int64_t slack_before = CounterValue("serve.sched.dispatch.slack");
  std::vector<Request> batch =
      sched.NextBatch(CapEight, /*max_wait_us=*/20000);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(clock.NowUs(), 4000.0);  // dispatched exactly at zero slack
  EXPECT_EQ(CounterValue("serve.sched.dispatch.slack") - slack_before, 1);
}

TEST(FairSchedulerTest, FullBucketStillDispatchesImmediately) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  sched.RegisterModel("m", 1.0, 4);
  for (int i = 0; i < 4; ++i) {
    Request r = SchedRequest("m", 1);
    ASSERT_TRUE(sched.Push(r));
  }
  const int64_t full_before = CounterValue("serve.sched.dispatch.full");
  std::vector<Request> batch =
      sched.NextBatch(CapFour, /*max_wait_us=*/1000000);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(clock.NowUs(), 0.0);  // never consulted a wait
  EXPECT_EQ(CounterValue("serve.sched.dispatch.full") - full_before, 1);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(FairSchedulerTest, AdmissionMatrixAcceptsAndRejectsOnPrediction) {
  FakeClock clock;
  SchedulerOptions o;
  o.clock = &clock;
  o.capacity = 64;
  o.exec_predictor = [](const std::string&, int64_t) {
    return std::optional<double>(1000.0);
  };
  FairScheduler sched(o);
  sched.RegisterModel("m", 1.0, 4);

  // Empty queue: only the predicted exec counts.
  EXPECT_TRUE(sched.Admit("m", 1, /*slo_us=*/2000.0).ok());
  Status late = sched.Admit("m", 1, /*slo_us=*/500.0);
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(GetRejectReason(late), RejectReason::kPredictedLateness);

  // Backlog of 8 rows = 2 full buckets at cap 4: predicted wait 2000us.
  for (int i = 0; i < 2; ++i) {
    Request r = SchedRequest("m", 4);
    ASSERT_TRUE(sched.Push(r));
  }
  EXPECT_EQ(sched.PredictedQueueWaitUs(), 2000.0);
  EXPECT_EQ(sched.QueuedRows("m"), 8);
  EXPECT_FALSE(sched.Admit("m", 1, /*slo_us=*/2500.0).ok());  // 3000 > 2500
  EXPECT_TRUE(sched.Admit("m", 1, /*slo_us=*/3500.0).ok());
}

TEST(FairSchedulerTest, AdmissionScalesWaitByDrainWorkers) {
  FakeClock clock;
  SchedulerOptions o;
  o.clock = &clock;
  o.drain_workers = 2;
  o.exec_predictor = [](const std::string&, int64_t) {
    return std::optional<double>(1000.0);
  };
  FairScheduler sched(o);
  sched.RegisterModel("m", 1.0, 4);
  for (int i = 0; i < 2; ++i) {
    Request r = SchedRequest("m", 4);
    ASSERT_TRUE(sched.Push(r));
  }
  // Two workers drain two predicted batches in one batch-time.
  EXPECT_EQ(sched.PredictedQueueWaitUs(), 1000.0);
}

TEST(FairSchedulerTest, AdmissionRejectsTypedQueueFull) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock, /*capacity=*/2);
  sched.RegisterModel("m", 1.0, 4);
  for (int i = 0; i < 2; ++i) {
    Request r = SchedRequest("m", 1);
    ASSERT_TRUE(sched.TryPush(r));
  }
  Status full = sched.Admit("m", 1, /*slo_us=*/1e9);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(GetRejectReason(full), RejectReason::kQueueFull);
}

TEST(FairSchedulerTest, AdmissionWithoutPredictorAcceptsWithinCapacity) {
  FakeClock clock;
  FairScheduler sched = MakeScheduler(&clock);
  sched.RegisterModel("m", 1.0, 4);
  // No measurement yet: admission cannot predict lateness, only a full
  // queue rejects.
  EXPECT_TRUE(sched.Admit("m", 4, /*slo_us=*/1.0).ok());
  EXPECT_EQ(sched.PredictedQueueWaitUs(), 0.0);
}

// ---------------------------------------------------------------------
// MLP helpers for the prewarmer / server-level tests
// ---------------------------------------------------------------------

Tensor Fp32Weight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat32, std::move(shape)));
  Rng rng(seed);
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  return t;
}

Result<Graph> BuildMlp(int64_t batch, uint64_t weight_seed = 100) {
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  NodeId x = b.Input("x", {batch, 16});
  NodeId y = b.Dense(x, b.Constant("w0", Fp32Weight({24, 16}, weight_seed)),
                     "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({24}, weight_seed + 1)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({8, 24}, weight_seed + 2)),
              "fc1");
  b.MarkOutput(y);
  return b.Build();
}

Tensor MlpInput(int64_t rows, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat32, {rows, 16}, Layout::kRowMajor));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.7f);
  return t;
}

ModelSpec MlpSpec(const std::string& name, std::vector<int64_t> buckets,
                  uint64_t weight_seed = 100) {
  ModelSpec spec;
  spec.name = name;
  spec.build_graph = [weight_seed](int64_t batch) {
    return BuildMlp(batch, weight_seed);
  };
  auto policy = BucketPolicy::Create(std::move(buckets));
  BOLT_CHECK(policy.ok());
  spec.buckets = std::move(policy).value();
  return spec;
}

// ---------------------------------------------------------------------
// EngineRegistry::WarmAll
// ---------------------------------------------------------------------

TEST(WarmAllTest, WalksTheBucketLadderExactlyOnce) {
  EngineRegistry registry(8);
  std::atomic<int> builds{0};
  ModelTable models;
  ModelSpec spec = MlpSpec("m", {1, 2, 4});
  spec.build_graph = [&builds](int64_t batch) {
    builds.fetch_add(1);
    return BuildMlp(batch);
  };
  models.emplace("m", std::move(spec));

  PrewarmStats first = registry.WarmAll(models);
  EXPECT_EQ(first.compiled, 3);
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.failed, 0);
  EXPECT_EQ(builds.load(), 3);  // one graph build per ladder rung
  for (int64_t bucket : {1, 2, 4}) {
    EXPECT_TRUE(registry.Contains("m", bucket)) << bucket;
  }

  // A second pass finds every rung cached: zero recompiles.
  PrewarmStats second = registry.WarmAll(models);
  EXPECT_EQ(second.compiled, 0);
  EXPECT_EQ(second.hits, 3);
  EXPECT_EQ(builds.load(), 3);
}

TEST(WarmAllTest, ThrowingCompileIsSkippedAndRetriedNextPass) {
  EngineRegistry registry(8);
  std::atomic<int> builds{0};
  std::atomic<bool> should_throw{true};
  ModelTable models;
  ModelSpec spec = MlpSpec("m", {1, 2});
  spec.build_graph = [&](int64_t batch) -> Result<Graph> {
    builds.fetch_add(1);
    // The first build (bucket 1) throws; the registry must convert the
    // exception into an error without poisoning the single-flight slot.
    if (should_throw.exchange(false)) {
      throw std::runtime_error("simulated compiler crash");
    }
    return BuildMlp(batch);
  };
  models.emplace("m", std::move(spec));

  PrewarmStats first = registry.WarmAll(models);
  EXPECT_EQ(first.failed, 1);
  EXPECT_EQ(first.compiled, 1);  // bucket 2 still compiled
  EXPECT_FALSE(registry.Contains("m", 1));

  PrewarmStats second = registry.WarmAll(models);
  EXPECT_EQ(second.failed, 0);
  EXPECT_EQ(second.compiled, 1);  // bucket 1 retried and cached
  EXPECT_EQ(second.hits, 1);
  EXPECT_TRUE(registry.Contains("m", 1));
}

TEST(EngineRegistryTest, ConcurrentThrowingCompilesDoNotWedgeTheSlot) {
  EngineRegistry registry(4);
  std::atomic<int> calls{0};
  ModelSpec throwing = MlpSpec("m", {1});
  throwing.build_graph = [&calls](int64_t) -> Result<Graph> {
    calls.fetch_add(1);
    throw std::runtime_error("boom");
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto e = registry.GetOrCompile(throwing, 1);
      if (!e.ok()) errors.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every caller got an error (none hung on a poisoned flight), and the
  // failure was not cached.
  EXPECT_EQ(errors.load(), kThreads);
  EXPECT_EQ(registry.size(), 0u);

  // The slot still works: a healthy compile succeeds afterwards.
  auto ok = registry.GetOrCompile(MlpSpec("m", {1}), 1);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(EngineRegistryTest, ExecEwmaSeedsSmoothsAndSurvivesEviction) {
  EngineRegistry registry(1);
  EXPECT_EQ(registry.PredictedExecUs("m", 4), std::nullopt);
  registry.RecordExecUs("m", 4, 1000.0);
  EXPECT_EQ(registry.PredictedExecUs("m", 4), 1000.0);  // seeded
  registry.RecordExecUs("m", 4, 2000.0);
  // ewma += 0.25 * (2000 - 1000)
  EXPECT_EQ(registry.PredictedExecUs("m", 4), 1250.0);

  // Nearest-bucket fallback by |log2 ratio|: 8 is closer to a recorded
  // 4 than to a recorded 32.
  registry.RecordExecUs("m", 32, 9000.0);
  EXPECT_EQ(registry.PredictedExecUs("m", 8), 1250.0);
  EXPECT_EQ(registry.PredictedExecUs("m", 16), 9000.0);

  // Garbage samples are dropped.
  registry.RecordExecUs("m", 4, -5.0);
  EXPECT_EQ(registry.PredictedExecUs("m", 4), 1250.0);

  // The EWMA deliberately outlives cache entries (capacity 1 here): the
  // scheduler needs the estimate precisely when the engine went cold.
  ASSERT_TRUE(registry.GetOrCompile(MlpSpec("m", {4}), 4).ok());
  ASSERT_TRUE(
      registry.GetOrCompile(MlpSpec("other", {4}), 4).ok());  // evicts
  EXPECT_FALSE(registry.Contains("m", 4));
  EXPECT_EQ(registry.PredictedExecUs("m", 4), 1250.0);
}

// ---------------------------------------------------------------------
// Server-level SLO admission
// ---------------------------------------------------------------------

TEST(ServerSloTest, SubmitRejectsPredictedLatenessAndServesFeasible) {
  ServerOptions options;
  options.batcher.max_wait_us = 0;
  Server server(options);
  ASSERT_TRUE(server.RegisterModel(MlpSpec("mlp", {1, 2, 4})).ok());

  // Teach the predictor that this model takes 50ms per batch.
  server.registry().RecordExecUs("mlp", 1, 50000.0);

  auto rejected = server.Submit("mlp", MlpInput(1, 1), /*slo_us=*/100);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(GetRejectReason(rejected.status()),
            RejectReason::kPredictedLateness);

  // A feasible SLO is admitted, stamped with a deadline, and served.
  auto admitted =
      server.Submit("mlp", MlpInput(1, 1), /*slo_us=*/60 * 1000 * 1000);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(server.batcher().RunOnce(), 1);
  auto result = admitted->get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ServerSloTest, ModelDefaultSloAppliesWhenSubmitDoesNotOverride) {
  ServerOptions options;
  options.batcher.max_wait_us = 0;
  Server server(options);
  ModelSpec spec = MlpSpec("mlp", {1, 2});
  spec.slo_us = 100;  // every request inherits a 100us SLO
  ASSERT_TRUE(server.RegisterModel(std::move(spec)).ok());
  server.registry().RecordExecUs("mlp", 1, 50000.0);

  auto rejected = server.Submit("mlp", MlpInput(1, 1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(GetRejectReason(rejected.status()),
            RejectReason::kPredictedLateness);

  // An explicit 0 opts back out of the SLO path entirely.
  auto no_slo = server.Submit("mlp", MlpInput(1, 1), /*slo_us=*/0);
  ASSERT_TRUE(no_slo.ok()) << no_slo.status().ToString();
  EXPECT_EQ(server.batcher().RunOnce(), 1);
  EXPECT_TRUE(no_slo->get().ok());
}

TEST(ServerSloTest, RegisterModelValidatesWeightAndSlo) {
  Server server;
  ModelSpec bad_weight = MlpSpec("w", {2});
  bad_weight.weight = 0.0;
  EXPECT_FALSE(server.RegisterModel(std::move(bad_weight)).ok());
  ModelSpec bad_slo = MlpSpec("s", {2});
  bad_slo.slo_us = -1;
  EXPECT_FALSE(server.RegisterModel(std::move(bad_slo)).ok());
}

TEST(ServerSloTest, RegisterModelTurnsAThrowingBuildIntoAnError) {
  Server server;
  ModelSpec throwing = MlpSpec("t", {1, 2});
  throwing.build_graph = [](int64_t) -> Result<Graph> {
    throw std::runtime_error("simulated builder crash");
  };
  const Status status = server.RegisterModel(std::move(throwing));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("simulated builder crash"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(server.models().count("t"), 0u);
  // The server stays usable for well-formed specs.
  EXPECT_TRUE(server.RegisterModel(MlpSpec("ok", {1})).ok());
}

TEST(ServerSloTest, PrewarmCompilesEveryRegisteredLadder) {
  Server server;
  ASSERT_TRUE(server.RegisterModel(MlpSpec("a", {1, 2})).ok());
  ASSERT_TRUE(server.RegisterModel(MlpSpec("b", {4}, 200)).ok());
  PrewarmStats stats = server.Prewarm();
  EXPECT_EQ(stats.compiled, 3);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_TRUE(server.registry().Contains("a", 1));
  EXPECT_TRUE(server.registry().Contains("a", 2));
  EXPECT_TRUE(server.registry().Contains("b", 4));
}

// ---------------------------------------------------------------------
// Multi-tenant stress (the tsan target): 4 tenants, 8 clients, 2
// workers, no sleeps, no wall-clock assertions.
// ---------------------------------------------------------------------

TEST(FairSchedulerStressTest, FourTenantsEightClientsTwoWorkers) {
  ServerOptions options;
  options.batcher.max_wait_us = 200;
  options.batcher.num_workers = 2;
  Server server(options);
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  for (size_t i = 0; i < tenants.size(); ++i) {
    ModelSpec spec = MlpSpec(tenants[i], {1, 2, 4}, 100 + 50 * i);
    spec.weight = i == 0 ? 2.0 : 1.0;  // one hot, weighted tenant
    ASSERT_TRUE(server.RegisterModel(std::move(spec)).ok());
  }
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // The hot tenant takes half the traffic, the rest spreads.
        const std::string& tenant =
            (c + i) % 2 == 0 ? tenants[0]
                             : tenants[1 + static_cast<size_t>(
                                               (c + i / 2) % 3)];
        const int64_t rows = 1 + (c + i) % 2;
        auto f = server.Submit(
            tenant, MlpInput(rows, 3000 + static_cast<uint64_t>(
                                              c * 100 + i)));
        if (!f.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!f->get().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace bolt
