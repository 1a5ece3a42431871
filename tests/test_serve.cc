// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Tests for the dynamic-batching serving layer (docs/SERVING.md): bucket
// policy, the LRU engine registry's eviction and single-flight
// compilation, batched execution vs per-request execution (bit-for-bit
// on the same engine), the two-tier contract vs the reference
// interpreter, and multi-threaded serving (the tsan target).  Batch
// formation is pinned in test_serve_sched.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bolt/engine.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "cpukernels/cpuinfo.h"
#include "ir/interpreter.h"
#include "serve/bucketing.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "testing/diff_harness.h"

namespace bolt {
namespace serve {
namespace {

Tensor Fp32Weight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat32, std::move(shape)));
  Rng rng(seed);
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  return t;
}

/// Batch-parameterized FP32 MLP.  Fixed weight seeds, so every bucket's
/// engine computes the same function; FP32 keeps the scalar tier of the
/// two-tier contract bit-exact end to end.
Result<Graph> BuildMlp(int64_t batch, uint64_t weight_seed = 100) {
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  NodeId x = b.Input("x", {batch, 16});
  NodeId y = b.Dense(x, b.Constant("w0", Fp32Weight({24, 16}, weight_seed)),
                     "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({24}, weight_seed + 1)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({8, 24}, weight_seed + 2)),
              "fc1");
  y = b.Softmax(y);
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
// BucketPolicy
// ---------------------------------------------------------------------

TEST(BucketPolicyTest, RoundUpPicksSmallestCoveringBucket) {
  auto p = BucketPolicy::Create({8, 1, 4, 4});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->buckets(), (std::vector<int64_t>{1, 4, 8}));
  EXPECT_EQ(p->max_bucket(), 8);
  EXPECT_EQ(p->RoundUp(1).value_or(-1), 1);
  EXPECT_EQ(p->RoundUp(2).value_or(-1), 4);
  EXPECT_EQ(p->RoundUp(4).value_or(-1), 4);
  EXPECT_EQ(p->RoundUp(5).value_or(-1), 8);
  EXPECT_FALSE(p->RoundUp(9).has_value());
  EXPECT_FALSE(p->RoundUp(0).has_value());
}

TEST(BucketPolicyTest, CreateRejectsEmptyAndNonPositiveSets) {
  EXPECT_FALSE(BucketPolicy::Create({}).ok());
  EXPECT_FALSE(BucketPolicy::Create({4, 0}).ok());
  EXPECT_FALSE(BucketPolicy::Create({-1}).ok());
}

// ---------------------------------------------------------------------
// EngineRegistry
// ---------------------------------------------------------------------

/// An MLP spec for `name` whose graph builds are counted in `*builds`.
ModelSpec CountingMlpSpec(const std::string& name, std::atomic<int>* builds,
                          int sleep_ms = 0) {
  ModelSpec spec = MlpSpec(name, {1});
  spec.build_graph = [builds, sleep_ms](int64_t batch) {
    builds->fetch_add(1);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    return BuildMlp(batch);
  };
  return spec;
}

TEST(EngineRegistryTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  EngineRegistry reg(2);
  std::atomic<int> compiles{0};
  const ModelSpec a = CountingMlpSpec("a", &compiles);
  const ModelSpec b = CountingMlpSpec("b", &compiles);
  const ModelSpec c = CountingMlpSpec("c", &compiles);

  ASSERT_TRUE(reg.GetOrCompile(a, 1).ok());
  ASSERT_TRUE(reg.GetOrCompile(b, 1).ok());
  ASSERT_TRUE(reg.GetOrCompile(a, 1).ok());  // touch a
  ASSERT_TRUE(reg.GetOrCompile(c, 1).ok());  // evicts b
  EXPECT_EQ(compiles.load(), 3);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.KeysByRecency(),
            (std::vector<std::string>{"c@1", "a@1"}));

  // b was evicted: asking again recompiles.
  ASSERT_TRUE(reg.GetOrCompile(b, 1).ok());
  EXPECT_EQ(compiles.load(), 4);
}

TEST(EngineRegistryTest, SingleFlightSharesOneCompilation) {
  EngineRegistry reg(4);
  std::atomic<int> compiles{0};
  const ModelSpec spec = CountingMlpSpec("m", &compiles, /*sleep_ms=*/25);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Engine>> engines(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto e = reg.GetOrCompile(spec, 4);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      engines[static_cast<size_t>(t)] = *e;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(engines[static_cast<size_t>(t)].get(), engines[0].get());
  }
}

TEST(EngineRegistryTest, FailedCompilationIsNotCached) {
  EngineRegistry reg(4);
  std::atomic<int> calls{0};
  ModelSpec failing = MlpSpec("m", {1});
  failing.build_graph = [&calls](int64_t) -> Result<Graph> {
    calls.fetch_add(1);
    return Status::Internal("boom");
  };
  EXPECT_FALSE(reg.GetOrCompile(failing, 1).ok());
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_FALSE(reg.GetOrCompile(failing, 1).ok());
  EXPECT_EQ(calls.load(), 2);  // retried, not served from cache

  std::atomic<int> compiles{0};
  ASSERT_TRUE(reg.GetOrCompile(CountingMlpSpec("m", &compiles), 1).ok());
  EXPECT_EQ(compiles.load(), 1);
}

// ---------------------------------------------------------------------
// Engine::RunBatch
// ---------------------------------------------------------------------

TEST(EngineRunBatchTest, ValidatesRequests) {
  Result<Graph> g = BuildMlp(4);
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  EXPECT_FALSE(engine->RunBatch({}).ok());
  // Tail-shape mismatch.
  EXPECT_FALSE(engine->RunBatch({MlpInput(1, 1).Cast(DType::kFloat16)}).ok());
  Tensor wrong_tail(TensorDesc(DType::kFloat32, {1, 15}, Layout::kRowMajor));
  EXPECT_FALSE(engine->RunBatch({wrong_tail}).ok());
  // Rows exceed the compiled batch.
  EXPECT_FALSE(engine->RunBatch({MlpInput(3, 1), MlpInput(2, 2)}).ok());
  // Exactly full is fine.
  auto full = engine->RunBatch({MlpInput(3, 1), MlpInput(1, 2)});
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

TEST(EngineRunBatchTest, PaddedBatchMatchesPerRequestBitForBit) {
  Result<Graph> g = BuildMlp(8);
  ASSERT_TRUE(g.ok());
  auto engine = Engine::Compile(*g, CompileOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<Tensor> requests = {MlpInput(1, 11), MlpInput(2, 12),
                                        MlpInput(3, 13)};
  auto batched = engine->RunBatch(requests);  // 6 rows, 2 padded
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    auto alone = engine->RunBatch({requests[i]});
    ASSERT_TRUE(alone.ok());
    ASSERT_EQ((*batched)[i].size(), (*alone)[0].size());
    for (size_t o = 0; o < (*alone)[0].size(); ++o) {
      // Same engine, same tier: padding and demux must be invisible.
      EXPECT_EQ((*batched)[i][o].MaxAbsDiff((*alone)[0][o]), 0.0f)
          << "request " << i << " output " << o;
      EXPECT_EQ((*batched)[i][o].shape()[0], requests[i].shape()[0]);
    }
  }
}

// ---------------------------------------------------------------------
// Server end-to-end
// ---------------------------------------------------------------------

ServerOptions DeterministicOptions() {
  ServerOptions o;
  o.batcher.max_wait_us = 0;  // RunOnce flushes immediately
  return o;
}

TEST(ServerTest, RegisterModelValidatesSpec) {
  Server server(DeterministicOptions());
  EXPECT_FALSE(server.RegisterModel(ModelSpec{}).ok());  // empty name

  ModelSpec no_graph = MlpSpec("m", {4});
  no_graph.build_graph = nullptr;
  EXPECT_FALSE(server.RegisterModel(std::move(no_graph)).ok());

  // Leading dim of the built graph must equal the bucket batch size.
  ModelSpec wrong_batch = MlpSpec("m", {4});
  wrong_batch.build_graph = [](int64_t) { return BuildMlp(2); };
  EXPECT_FALSE(server.RegisterModel(std::move(wrong_batch)).ok());

  ASSERT_TRUE(server.RegisterModel(MlpSpec("m", {4})).ok());
  EXPECT_FALSE(server.RegisterModel(MlpSpec("m", {8})).ok());  // duplicate
  EXPECT_EQ(server.models().at("m").input_name, "x");
}

TEST(ServerTest, SubmitValidatesRequests) {
  Server server(DeterministicOptions());
  ASSERT_TRUE(server.RegisterModel(MlpSpec("mlp", {1, 4})).ok());

  EXPECT_FALSE(server.Submit("nope", MlpInput(1, 1)).ok());
  Tensor bad_tail(TensorDesc(DType::kFloat32, {1, 15}, Layout::kRowMajor));
  EXPECT_FALSE(server.Submit("mlp", bad_tail).ok());
  EXPECT_FALSE(server.Submit("mlp", MlpInput(1, 1).Cast(DType::kFloat16)).ok());
  EXPECT_FALSE(server.Submit("mlp", MlpInput(5, 1)).ok());  // > max bucket
  EXPECT_TRUE(server.Submit("mlp", MlpInput(4, 1)).ok());
}

TEST(ServerTest, CoalescedPaddedBatchMatchesPerRequestExecution) {
  Server server(DeterministicOptions());
  ASSERT_TRUE(server.RegisterModel(MlpSpec("mlp", {1, 2, 4, 8})).ok());

  const std::vector<int64_t> request_rows = {1, 2, 3};
  std::vector<Tensor> inputs;
  std::vector<Server::ResponseFuture> futures;
  for (size_t i = 0; i < request_rows.size(); ++i) {
    inputs.push_back(MlpInput(request_rows[i], 40 + i));
    auto f = server.Submit("mlp", inputs.back());
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(*f));
  }

  // One deterministic batcher step must serve all three requests: 6 rows
  // round up to the 8-bucket.
  EXPECT_EQ(server.batcher().RunOnce(), 6);
  EXPECT_EQ(server.registry().KeysByRecency(),
            (std::vector<std::string>{"mlp@8"}));

  // The bucket engine, fetched from the cache (hit, no recompile).
  ModelSpec cached_only = MlpSpec("mlp", {8});
  cached_only.build_graph = [](int64_t) -> Result<Graph> {
    return Status::Internal("must be cached");
  };
  auto engine = server.registry().GetOrCompile(cached_only, 8);
  ASSERT_TRUE(engine.ok());

  for (size_t i = 0; i < futures.size(); ++i) {
    Result<std::vector<Tensor>> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto alone = (*engine)->RunBatch({inputs[i]});
    ASSERT_TRUE(alone.ok());
    ASSERT_EQ(got->size(), (*alone)[0].size());
    for (size_t o = 0; o < got->size(); ++o) {
      EXPECT_EQ((*got)[o].MaxAbsDiff((*alone)[0][o]), 0.0f)
          << "request " << i << " output " << o;
    }
  }
}

TEST(ServerTest, ServedResultsMatchReferenceInterpreter) {
  Server server(DeterministicOptions());
  ASSERT_TRUE(server.RegisterModel(MlpSpec("mlp", {1, 2, 4, 8})).ok());

  const std::vector<int64_t> request_rows = {2, 3};
  std::vector<Tensor> inputs;
  std::vector<Server::ResponseFuture> futures;
  for (size_t i = 0; i < request_rows.size(); ++i) {
    inputs.push_back(MlpInput(request_rows[i], 50 + i));
    auto f = server.Submit("mlp", inputs.back());
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(server.batcher().RunOnce(), 5);

  // Two-tier contract vs the naive per-request oracle: bit-exact on the
  // scalar tier, ULP-bounded under AVX2.
  const difftest::Tolerance tol = difftest::ToleranceFor(
      cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto),
      DType::kFloat32);
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<std::vector<Tensor>> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<Graph> per_request = BuildMlp(request_rows[i]);
    ASSERT_TRUE(per_request.ok());
    auto ref = RefExecutor(*per_request).Run({{"x", inputs[i]}});
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(got->size(), ref->size());
    for (size_t o = 0; o < got->size(); ++o) {
      SCOPED_TRACE(StrCat("request ", i, " output ", o));
      EXPECT_TRUE(
          difftest::CheckDiff("serve", (*got)[o], (*ref)[o], tol));
    }
  }
}

TEST(ServerTest, MultiTenantServingWithLruEviction) {
  ServerOptions options = DeterministicOptions();
  options.engine_cache_capacity = 1;  // force churn between tenants
  Server server(options);
  ASSERT_TRUE(
      server.RegisterModel(MlpSpec("alpha", {4}, /*weight_seed=*/100)).ok());
  ASSERT_TRUE(
      server.RegisterModel(MlpSpec("beta", {4}, /*weight_seed=*/200)).ok());

  metrics::Counter& evictions =
      metrics::Registry::Global().GetCounter("serve.engine.evict");
  const int64_t evictions_before = evictions.value();

  std::vector<Server::ResponseFuture> futures;
  for (int round = 0; round < 2; ++round) {
    for (const std::string model : {"alpha", "beta"}) {
      auto f = server.Submit(model, MlpInput(2, 60 + round));
      ASSERT_TRUE(f.ok());
      futures.push_back(std::move(*f));
      EXPECT_EQ(server.batcher().RunOnce(), 2);
    }
  }
  EXPECT_EQ(server.registry().size(), 1u);
  EXPECT_GE(evictions.value() - evictions_before, 3);

  // Tenants stay isolated: different weights, different outputs.
  std::vector<Result<std::vector<Tensor>>> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  EXPECT_GT(
      (*results[0])[0].MaxAbsDiff((*results[1])[0]), 0.0f);
}

// The tsan target: concurrent clients, multiple batcher workers, one
// shared engine cache.
TEST(ServerTest, ConcurrentClientsReceiveCorrectResults) {
  ServerOptions options;
  options.batcher.max_wait_us = 500;
  options.batcher.num_workers = 2;
  Server server(options);
  ASSERT_TRUE(server.RegisterModel(MlpSpec("mlp", {1, 2, 4, 8})).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t rows = 1 + (c + i) % 3;
        const uint64_t seed = 1000 + static_cast<uint64_t>(c * 100 + i);
        Tensor input = MlpInput(rows, seed);
        auto f = server.Submit("mlp", input);
        if (!f.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Result<std::vector<Tensor>> got = f->get();
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Result<Graph> g = BuildMlp(rows);
        auto ref = RefExecutor(*g).Run({{"x", input}});
        const difftest::Tolerance tol = difftest::ToleranceFor(
            cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto),
            DType::kFloat32);
        if (!ref.ok() ||
            !difftest::CheckDiff("serve", (*got)[0], (*ref)[0], tol)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);

  // Every submission was answered through a batched execution.
  metrics::Counter& batches =
      metrics::Registry::Global().GetCounter("serve.batch.count");
  EXPECT_GT(batches.value(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace bolt
