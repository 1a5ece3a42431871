// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Serving-layer benchmark (docs/SERVING.md): does dynamic batching win
// over per-request execution, and by how much?
//
//   * closed loop — N concurrent clients each submit back-to-back
//     single-row requests; the batcher coalesces whatever is in flight.
//     Compared against the same request stream executed one Run per
//     request on a batch-1 engine (the no-serving baseline).
//   * open loop — one producer submits at a fixed arrival rate; reported
//     latencies include queueing, so this is the tail-latency view.
//
// Reports p50/p95/p99 latency and requests/sec for each mode, asserts
// the batched outputs against the per-request reference oracle under the
// two-tier contract, and writes the BENCH_serving.json artifact.
//
// A third arm, --multitenant, exercises the fair scheduler
// (serve/scheduler.h): three background tenants run a closed loop alone
// (phase A), then again while a hot tenant floods the server at 10x
// their client count (phase B).  The fairness gate requires the
// background p99 under contention to stay within 1.5x of its
// uncontended baseline — with a single FIFO queue the hot tenant
// head-of-line-blocks the background tenants and this gate fails.
//
// Flags: --smoke (small workload for CI), --multitenant (fairness arm
// instead of the batching arms), --out=PATH (default
// BENCH_serving.json), --trace[=PATH].

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "bolt/engine.h"
#include "common/rng.h"
#include "ir/interpreter.h"
#include "serve/server.h"

namespace bolt {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tensor Fp32Weight(std::vector<int64_t> shape, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat32, std::move(shape)));
  Rng rng(seed);
  int64_t fan = 1;
  for (size_t i = 1; i < t.shape().size(); ++i) fan *= t.shape()[i];
  rng.FillNormal(t.data(), 1.0f / std::sqrt(static_cast<float>(fan)));
  return t;
}

constexpr int64_t kIn = 64;
constexpr int64_t kHidden = 256;
constexpr int64_t kOut = 64;

Result<Graph> BuildMlp(int64_t batch) {
  GraphBuilder b(DType::kFloat32, Layout::kRowMajor);
  NodeId x = b.Input("x", {batch, kIn});
  NodeId y = b.Dense(x, b.Constant("w0", Fp32Weight({kHidden, kIn}, 1)),
                     "fc0");
  y = b.BiasAdd(y, b.Constant("b0", Fp32Weight({kHidden}, 2)));
  y = b.Activation(y, ActivationKind::kRelu);
  y = b.Dense(y, b.Constant("w1", Fp32Weight({kOut, kHidden}, 3)), "fc1");
  y = b.Softmax(y);
  b.MarkOutput(y);
  return b.Build();
}

Tensor OneRowInput(uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat32, {1, kIn}, Layout::kRowMajor));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.7f);
  return t;
}

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles ComputePercentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const size_t i = static_cast<size_t>(
        std::min<double>(std::ceil(q * static_cast<double>(v.size())),
                         static_cast<double>(v.size())) -
        1.0);
    return v[i];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

struct ModeResult {
  std::string name;
  int64_t requests = 0;
  double wall_us = 0.0;
  Percentiles lat;
  double rps() const {
    return wall_us <= 0.0 ? 0.0
                          : static_cast<double>(requests) * 1e6 / wall_us;
  }
};

void PrintMode(const ModeResult& r) {
  std::printf("  %-22s %6lld req  %9.0f req/s   p50 %8.1f us   p95 %8.1f "
              "us   p99 %8.1f us\n",
              r.name.c_str(), static_cast<long long>(r.requests), r.rps(),
              r.lat.p50, r.lat.p95, r.lat.p99);
}

std::string ModeJson(const ModeResult& r) {
  return StrCat("{\"requests\":", r.requests, ",\"rps\":", r.rps(),
                ",\"p50_us\":", r.lat.p50, ",\"p95_us\":", r.lat.p95,
                ",\"p99_us\":", r.lat.p99, "}");
}

/// No-serving baseline: every request is one Engine::Run on the batch-1
/// engine, sequentially (what a client library without a server does).
ModeResult RunSingleRequestBaseline(const Engine& engine,
                                    int64_t requests) {
  ModeResult r;
  r.name = "single-request";
  r.requests = requests;
  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(requests));
  const double t0 = NowUs();
  for (int64_t i = 0; i < requests; ++i) {
    const double s = NowUs();
    auto out = engine.RunBatch({OneRowInput(100 + static_cast<uint64_t>(i))});
    BOLT_CHECK_MSG(out.ok(), out.status().ToString());
    lat.push_back(NowUs() - s);
  }
  r.wall_us = NowUs() - t0;
  r.lat = ComputePercentiles(std::move(lat));
  return r;
}

/// Closed loop: `clients` threads each submit `per_client` single-row
/// requests back to back through the server.
ModeResult RunClosedLoop(serve::Server& server, int clients,
                         int64_t per_client) {
  ModeResult r;
  r.name = StrCat("batched x", clients, " clients");
  r.requests = clients * per_client;
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::atomic<int64_t> errors{0};
  const double t0 = NowUs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = lat[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(per_client));
      for (int64_t i = 0; i < per_client; ++i) {
        const uint64_t seed = 100 + static_cast<uint64_t>(c) * 10000 +
                              static_cast<uint64_t>(i);
        const double s = NowUs();
        auto f = server.Submit("mlp", OneRowInput(seed));
        if (!f.ok() || !f->get().ok()) {
          errors.fetch_add(1);
          continue;
        }
        mine.push_back(NowUs() - s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.wall_us = NowUs() - t0;
  BOLT_CHECK_MSG(errors.load() == 0, errors.load() << " serving errors");
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  r.lat = ComputePercentiles(std::move(all));
  return r;
}

/// Open loop: submit at a fixed arrival rate from one producer; latency
/// includes queueing delay.
ModeResult RunOpenLoop(serve::Server& server, int64_t requests,
                       double interarrival_us) {
  ModeResult r;
  r.name = StrCat("open-loop @", 1e6 / interarrival_us, " req/s");
  r.requests = requests;
  const size_t n = static_cast<size_t>(requests);
  std::vector<serve::Server::ResponseFuture> futures(n);
  std::vector<double> submit_us(n);
  std::vector<double> lat(n);
  std::atomic<int64_t> submitted{0};
  // Drain futures FIFO concurrently with submission, so a request's
  // latency is measured when its response arrives — draining after the
  // submission loop would count observation delay as queueing delay.
  std::thread drain([&] {
    for (int64_t i = 0; i < requests; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      auto out = futures[static_cast<size_t>(i)].get();
      BOLT_CHECK_MSG(out.ok(), out.status().ToString());
      lat[static_cast<size_t>(i)] =
          NowUs() - submit_us[static_cast<size_t>(i)];
    }
  });
  const double t0 = NowUs();
  for (int64_t i = 0; i < requests; ++i) {
    // Sleep-based pacing: a busy-wait would starve the batcher workers
    // on small machines and turn queueing delay into scheduler noise.
    const double due = t0 + static_cast<double>(i) * interarrival_us;
    for (double now = NowUs(); now < due; now = NowUs()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(due - now));
    }
    auto f = server.Submit("mlp", OneRowInput(900000 +
                                              static_cast<uint64_t>(i)));
    BOLT_CHECK_MSG(f.ok(), f.status().ToString());
    futures[static_cast<size_t>(i)] = std::move(*f);
    submit_us[static_cast<size_t>(i)] = NowUs();
    submitted.store(i + 1, std::memory_order_release);
  }
  drain.join();
  r.wall_us = NowUs() - t0;
  r.lat = ComputePercentiles(std::move(lat));
  return r;
}

/// One closed-loop client stream against a named tenant; returns the
/// request latencies (us).
std::vector<double> RunTenantClients(serve::Server& server,
                                     const std::string& tenant,
                                     int clients, int64_t per_client,
                                     uint64_t seed_base,
                                     std::atomic<int64_t>* errors) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = lat[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(per_client));
      for (int64_t i = 0; i < per_client; ++i) {
        const uint64_t seed = seed_base + static_cast<uint64_t>(c) * 10000 +
                              static_cast<uint64_t>(i);
        const double s = NowUs();
        auto f = server.Submit(tenant, OneRowInput(seed));
        if (!f.ok() || !f->get().ok()) {
          errors->fetch_add(1);
          continue;
        }
        mine.push_back(NowUs() - s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct MultiTenantResult {
  Percentiles baseline;   // background tenants alone
  Percentiles contended;  // background tenants + hot tenant at 10x
  double hot_requests = 0.0;
  double bg_requests = 0.0;
};

/// Phase A: the background tenants run their closed loop alone.
/// Phase B: the same background load, plus the hot tenant at 10x the
/// background client count.  DRR must keep the background p99 within
/// the fairness gate despite the flood.
MultiTenantResult RunMultiTenant(serve::Server& server,
                                 const std::vector<std::string>& bg,
                                 const std::string& hot,
                                 int clients_per_bg, int hot_clients,
                                 int64_t per_client) {
  MultiTenantResult r;
  std::atomic<int64_t> errors{0};

  const auto run_background = [&](uint64_t seed_base) {
    std::vector<std::thread> tenants;
    std::vector<std::vector<double>> lat(bg.size());
    for (size_t t = 0; t < bg.size(); ++t) {
      tenants.emplace_back([&, t] {
        lat[t] = RunTenantClients(server, bg[t], clients_per_bg,
                                  per_client,
                                  seed_base + 1000000 * (t + 1), &errors);
      });
    }
    for (std::thread& t : tenants) t.join();
    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    return all;
  };

  std::vector<double> alone = run_background(10000000);
  r.bg_requests = static_cast<double>(alone.size());
  r.baseline = ComputePercentiles(std::move(alone));

  std::vector<double> hot_lat;
  std::thread flood([&] {
    hot_lat = RunTenantClients(server, hot, hot_clients,
                               per_client, 90000000, &errors);
  });
  std::vector<double> contended = run_background(50000000);
  flood.join();
  r.hot_requests = static_cast<double>(hot_lat.size());
  r.contended = ComputePercentiles(std::move(contended));

  BOLT_CHECK_MSG(errors.load() == 0, errors.load() << " serving errors");
  return r;
}

/// The correctness gate: a served batch must match the per-request
/// reference oracle under the two-tier contract (bit-exact scalar tier,
/// ULP-bounded SIMD tier; here FP32 end to end, so the scalar tier means
/// MaxAbsDiff == 0).
void CheckAgainstReference(serve::Server& server) {
  std::vector<Tensor> inputs;
  std::vector<serve::Server::ResponseFuture> futures;
  for (uint64_t i = 0; i < 3; ++i) {
    inputs.push_back(OneRowInput(7000 + i));
    auto f = server.Submit("mlp", inputs.back());
    BOLT_CHECK(f.ok());
    futures.push_back(std::move(*f));
  }
  Result<Graph> g = BuildMlp(1);
  BOLT_CHECK(g.ok());
  const RefExecutor oracle(*g);
  const cpukernels::CpuIsa isa =
      cpukernels::ResolveCpuIsa(cpukernels::CpuIsa::kAuto);
  float worst = 0.0f;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto got = futures[i].get();
    BOLT_CHECK_MSG(got.ok(), got.status().ToString());
    auto want = oracle.Run({{"x", inputs[i]}});
    BOLT_CHECK(want.ok());
    const float diff = (*got)[0].MaxAbsDiff((*want)[0]);
    worst = std::max(worst, diff);
    if (isa == cpukernels::CpuIsa::kScalar) {
      BOLT_CHECK_MSG(diff == 0.0f,
                     "scalar tier must be bit-exact, got " << diff);
    } else {
      BOLT_CHECK_MSG(diff <= 1e-5f, "SIMD tier diff too large: " << diff);
    }
  }
  bench::Note(StrCat("served outputs vs per-request reference: max |d| = ",
                     worst, isa == cpukernels::CpuIsa::kScalar
                                ? " (bit-exact tier)"
                                : " (ULP-bounded tier)"));
}

}  // namespace
}  // namespace bolt

int main(int argc, char** argv) {
  using namespace bolt;
  bench::InitTrace(argc, argv);
  bool smoke = false;
  bool multitenant = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--multitenant") == 0) multitenant = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  if (multitenant) {
    bench::Title("bench_serving --multitenant",
                 "fair scheduling under a hot tenant");

    const std::vector<int64_t> buckets = {1, 2, 4, 8};
    const int clients_per_bg = 1;
    const int hot_clients = 10;  // 10x the per-tenant background load
    const int64_t per_client = smoke ? 40 : 300;

    serve::ServerOptions options;
    options.queue_capacity = 1024;
    options.engine_cache_capacity = 16;
    options.batcher.max_wait_us = 100;
    options.batcher.num_workers = 2;
    serve::Server server(options);
    const std::vector<std::string> bg = {"bg0", "bg1", "bg2"};
    std::vector<std::string> tenants = bg;
    tenants.push_back("hot");
    for (const std::string& name : tenants) {
      serve::ModelSpec spec;
      spec.name = name;
      spec.build_graph = [](int64_t batch) { return BuildMlp(batch); };
      auto policy = serve::BucketPolicy::Create(buckets);
      BOLT_CHECK(policy.ok());
      spec.buckets = std::move(policy).value();
      Status st = server.RegisterModel(std::move(spec));
      BOLT_CHECK_MSG(st.ok(), st.ToString());
    }
    Status st = server.Start();
    BOLT_CHECK_MSG(st.ok(), st.ToString());
    // Warm every tenant's ladder off the measured path.
    const serve::PrewarmStats warm = server.Prewarm();
    bench::Note(StrCat("prewarmed ", warm.compiled, " engines (",
                       warm.failed, " failures)"));
    bench::Note(StrCat(bg.size(), " background tenants x ", clients_per_bg,
                       " client(s), hot tenant x ", hot_clients,
                       " clients, ", per_client, " requests per client"));
    bench::Rule();

    const MultiTenantResult mt = RunMultiTenant(
        server, bg, "hot", clients_per_bg, hot_clients, per_client);
    std::printf("  %-22s p50 %8.1f us   p95 %8.1f us   p99 %8.1f us\n",
                "background alone", mt.baseline.p50, mt.baseline.p95,
                mt.baseline.p99);
    std::printf("  %-22s p50 %8.1f us   p95 %8.1f us   p99 %8.1f us\n",
                "background contended", mt.contended.p50, mt.contended.p95,
                mt.contended.p99);
    bench::Rule();

    // Fairness gate: contended background p99 within 1.5x of its
    // uncontended baseline.  The absolute floor keeps micro-latency
    // noise (both p99s a few hundred us) from flipping the gate on
    // loaded CI machines.
    constexpr double kNoiseFloorUs = 5000.0;
    const double ratio = mt.baseline.p99 <= 0.0
                             ? 0.0
                             : mt.contended.p99 / mt.baseline.p99;
    const bool fairness_ok =
        mt.contended.p99 <= mt.baseline.p99 * 1.5 ||
        mt.contended.p99 <= kNoiseFloorUs;
    bench::Note(StrCat("background p99 under contention = ", ratio,
                       "x baseline (target <= 1.5x, noise floor ",
                       kNoiseFloorUs, " us)"));
    if (!fairness_ok) {
      bench::Note("WARNING: background p99 degraded beyond the 1.5x "
                  "fairness target");
    }

    const std::string json = StrCat(
        "{\"bench\":\"serving\",\"arm\":\"multitenant\",\"smoke\":",
        smoke ? "true" : "false",
        ",\"background_tenants\":", bg.size(),
        ",\"hot_clients\":", hot_clients,
        ",\"bg_requests\":", mt.bg_requests,
        ",\"hot_requests\":", mt.hot_requests,
        ",\"baseline\":{\"p50_us\":", mt.baseline.p50,
        ",\"p95_us\":", mt.baseline.p95, ",\"p99_us\":", mt.baseline.p99,
        "},\"contended\":{\"p50_us\":", mt.contended.p50,
        ",\"p95_us\":", mt.contended.p95, ",\"p99_us\":", mt.contended.p99,
        "},\"p99_ratio\":", ratio,
        ",\"fairness_target_met\":", fairness_ok ? "true" : "false", "}");
    bench::WriteBenchJson(out_path, json);

    server.Stop();
    bench::FlushTrace();
    return fairness_ok ? 0 : 1;
  }

  bench::Title("bench_serving",
               "dynamic batching vs per-request execution");

  // As many closed-loop clients as the largest bucket, so full batches
  // fire on the batcher's early-exit path instead of the straggler
  // deadline.
  const std::vector<int64_t> buckets =
      smoke ? std::vector<int64_t>{1, 2, 4}
            : std::vector<int64_t>{1, 2, 4, 8};
  const int clients = static_cast<int>(buckets.back());
  const int64_t per_client = smoke ? 50 : 400;
  const int64_t baseline_requests = clients * per_client;

  bench::Note(StrCat("model: MLP ", kIn, " -> ", kHidden, " -> ", kOut,
                     " (FP32), buckets {", StrJoin(buckets, ","), "}"));
  bench::Note(StrCat(clients, " clients x ", per_client,
                     " single-row requests per mode"));
  bench::Rule();

  // --- single-request baseline -------------------------------------
  auto graph1 = BuildMlp(1);
  BOLT_CHECK(graph1.ok());
  auto engine1 = Engine::Compile(*graph1, CompileOptions{});
  BOLT_CHECK_MSG(engine1.ok(), engine1.status().ToString());
  const ModeResult single =
      RunSingleRequestBaseline(*engine1, baseline_requests);
  PrintMode(single);

  // --- batched serving ---------------------------------------------
  serve::ServerOptions options;
  options.queue_capacity = 1024;
  options.engine_cache_capacity = 8;
  options.batcher.max_wait_us = 100;
  options.batcher.num_workers = 2;
  serve::Server server(options);
  {
    serve::ModelSpec spec;
    spec.name = "mlp";
    spec.build_graph = [](int64_t batch) { return BuildMlp(batch); };
    auto policy = serve::BucketPolicy::Create(buckets);
    BOLT_CHECK(policy.ok());
    spec.buckets = std::move(policy).value();
    Status st = server.RegisterModel(std::move(spec));
    BOLT_CHECK_MSG(st.ok(), st.ToString());
    st = server.Start();
    BOLT_CHECK_MSG(st.ok(), st.ToString());
  }
  // Warm the engine cache so the closed loop measures serving, not
  // first-compile latency.
  const serve::PrewarmStats warm = server.Prewarm();
  BOLT_CHECK(warm.failed == 0);

  const ModeResult batched = RunClosedLoop(server, clients, per_client);
  PrintMode(batched);

  const double interarrival_us = smoke ? 2000.0 : 500.0;
  const ModeResult open =
      RunOpenLoop(server, baseline_requests / 2, interarrival_us);
  PrintMode(open);
  bench::Rule();

  CheckAgainstReference(server);

  const double speedup = batched.rps() / single.rps();
  bench::Note(StrCat("batched throughput = ", speedup,
                     "x single-request (target >= 1.5x)"));
  const bool speedup_ok = speedup >= 1.5;
  if (!speedup_ok) {
    bench::Note("WARNING: batching speedup below the 1.5x target");
  }

  const std::string json = StrCat(
      "{\"bench\":\"serving\",\"smoke\":", smoke ? "true" : "false",
      ",\"model\":{\"in\":", kIn, ",\"hidden\":", kHidden,
      ",\"out\":", kOut, ",\"buckets\":[", StrJoin(buckets, ","),
      "]},\"closed_loop\":{\"single\":", ModeJson(single),
      ",\"batched\":", ModeJson(batched), ",\"speedup\":", speedup,
      ",\"speedup_target_met\":", speedup_ok ? "true" : "false",
      "},\"open_loop\":", ModeJson(open), "}");
  bench::WriteBenchJson(out_path, json);

  server.Stop();
  bench::FlushTrace();
  return speedup_ok ? 0 : 1;
}
