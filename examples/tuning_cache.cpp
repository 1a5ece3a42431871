// Tuning-cache workflow: profile a production workload mix once, save the
// log (tophub-style), and show that a "new session" loading the log
// compiles models with zero additional tuning time — plus how cheaply a
// brand-new dynamic shape is absorbed.
//
//   $ ./build/examples/tuning_cache [cache_file]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bolt/engine.h"
#include "models/zoo.h"

using namespace bolt;

int main(int argc, char** argv) {
  const std::string cache_path =
      argc > 1 ? argv[1] : "/tmp/bolt_tuning_cache.log";

  models::ModelOptions opts;
  opts.batch = 32;
  auto resnet = models::BuildResNet(18, opts);
  auto repvgg = [&] {
    models::RepVggOptions ro;
    static_cast<models::ModelOptions&>(ro) = opts;
    return models::BuildRepVgg(models::RepVggVariant::kA0, ro);
  }();
  if (!resnet.ok() || !repvgg.ok()) {
    std::printf("model build failed\n");
    return 1;
  }

  // --- Session 1: cold tuning, shared across two models ---------------
  std::printf("=== session 1 (cold) ===\n");
  Profiler session1(DeviceSpec::TeslaT4());
  CompileOptions copts;
  copts.shared_profiler = &session1;

  auto e1 = Engine::Compile(*resnet, copts);
  if (!e1.ok()) return 1;
  std::printf("ResNet-18:  %6.1f s tuning, %3d workloads in cache\n",
              e1->tuning_report().seconds,
              e1->tuning_report().workloads_profiled);
  auto e2 = Engine::Compile(*repvgg, copts);
  if (!e2.ok()) return 1;
  std::printf("RepVGG-A0:  %6.1f s additional tuning (cross-model reuse; "
              "cache now %d workloads)\n",
              e2->tuning_report().seconds,
              e2->tuning_report().workloads_profiled);

  {
    std::ofstream out(cache_path);
    if (session1.SaveCache(out).ok()) {
      std::printf("cache saved to %s\n\n", cache_path.c_str());
    }
  }

  // --- Session 2: warm start from the log ------------------------------
  std::printf("=== session 2 (warm from log) ===\n");
  Profiler session2(DeviceSpec::TeslaT4());
  {
    std::ifstream in(cache_path);
    Status st = session2.LoadCache(in);
    if (!st.ok()) {
      std::printf("cache load failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  CompileOptions warm;
  warm.shared_profiler = &session2;
  auto e3 = Engine::Compile(*resnet, warm);
  if (!e3.ok()) return 1;
  const bool same_latency =
      e3->EstimatedLatencyUs() == e1->EstimatedLatencyUs();
  std::printf("ResNet-18:  %6.1f s tuning (all cache hits), latency "
              "matches session 1: %s\n",
              e3->tuning_report().seconds, same_latency ? "yes" : "NO");
  // The warm session must be a pure replay of the log.
  if (e3->tuning_report().seconds != 0.0 || !same_latency) {
    std::printf("warm session did not reproduce session 1 from the log\n");
    return 1;
  }

  // --- A new dynamic shape arrives at runtime --------------------------
  std::printf("\n=== dynamic shape (batch 48 instead of 32) ===\n");
  models::ModelOptions dyn = opts;
  dyn.batch = 48;  // every workload in the model changes
  auto resnet48 = models::BuildResNet(18, dyn);
  if (!resnet48.ok()) return 1;
  auto e4 = Engine::Compile(*resnet48, warm);
  if (!e4.ok()) return 1;
  std::printf("ResNet-18 @ batch 48: %6.1f s of profiling for the unseen "
              "shapes (no 90 s arch pregen, no hour-scale search)\n",
              e4->tuning_report().seconds);
  std::printf("latency: %.1f us (batch 32 was %.1f us)\n",
              e4->EstimatedLatencyUs(), e1->EstimatedLatencyUs());
  return 0;
}
