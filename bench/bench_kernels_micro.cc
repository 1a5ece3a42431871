// Google-benchmark microbenchmarks of cutlite's functional GEMM model and
// the pass pipeline.  These measure real wall time of
// this library's own code paths — useful for keeping the simulator fast —
// as opposed to the simulated device latencies the table benches report.

#include <benchmark/benchmark.h>

#include "bolt/passes.h"
#include "common/rng.h"
#include "cutlite/b2b.h"
#include "cutlite/gemm.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

cutlite::KernelConfig SmallConfig() {
  cutlite::KernelConfig c;
  c.threadblock = cutlite::GemmShape(64, 64, 32);
  c.warp = cutlite::GemmShape(32, 32, 32);
  c.instruction = cutlite::GemmShape(16, 8, 8);
  return c;
}

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Tensor t(TensorDesc(DType::kFloat16, {rows, cols}, Layout::kRowMajor));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.3f);
  t.Quantize();
  return t;
}

// Times GemmKernel::Run's explicit tiled traversal (the split-K /
// column-reduction model), not the host kernels the engine executes on.
void BM_FunctionalGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomMatrix(n, n, 1);
  Tensor w = RandomMatrix(n, n, 2);
  cutlite::GemmKernel kernel(cutlite::GemmCoord(n, n, n), SmallConfig(),
                             cutlite::EpilogueSpec::Linear());
  cutlite::GemmArguments args;
  args.a = &a;
  args.w = &w;
  for (auto _ : state) {
    auto out = kernel.Run(args);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FunctionalGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_TimingModelGemm(benchmark::State& state) {
  const DeviceSpec t4 = DeviceSpec::TeslaT4();
  cutlite::GemmKernel kernel(cutlite::GemmCoord(4096, 4096, 4096),
                             SmallConfig(),
                             cutlite::EpilogueSpec::Linear());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.EstimateUs(t4));
  }
}
BENCHMARK(BM_TimingModelGemm);

void BM_ProfileGemmUncached(benchmark::State& state) {
  const DeviceSpec t4 = DeviceSpec::TeslaT4();
  int64_t k = 64;
  for (auto _ : state) {
    Profiler prof(t4);  // fresh: no cache hits
    auto r = prof.ProfileGemm(cutlite::GemmCoord(1280, 3072, k),
                              cutlite::EpilogueSpec::Linear());
    benchmark::DoNotOptimize(r.value().us);
    k += 64;  // vary workload to defeat any external memoization
  }
}
BENCHMARK(BM_ProfileGemmUncached);

void BM_HalfQuantizeRoundTrip(benchmark::State& state) {
  std::vector<float> data(1 << 16);
  Rng rng(3);
  rng.FillNormal(data, 10.0f);
  for (auto _ : state) {
    for (float& v : data) v = half_t::Quantize(v);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_HalfQuantizeRoundTrip);

void BM_EpilogueFusionPass(benchmark::State& state) {
  GraphBuilder b(DType::kFloat16, Layout::kNHWC);
  NodeId x = b.Input("x", {8, 32, 32, 16});
  for (int i = 0; i < 24; ++i) {
    Tensor w(TensorDesc(DType::kFloat16, {16, 3, 3, 16}));
    NodeId wc = b.Constant(StrCat("w", i), std::move(w));
    Conv2dAttrs a;
    a.pad_h = a.pad_w = 1;
    x = b.Conv2d(x, wc, a);
    Tensor bias(TensorDesc(DType::kFloat16, {16}));
    x = b.BiasAdd(x, b.Constant(StrCat("b", i), std::move(bias)));
    x = b.Activation(x, ActivationKind::kRelu);
  }
  b.MarkOutput(x);
  auto g = b.Build();
  for (auto _ : state) {
    Graph out = EpilogueFusionPass(*g);
    benchmark::DoNotOptimize(out.num_nodes());
  }
}
BENCHMARK(BM_EpilogueFusionPass);

}  // namespace
}  // namespace bolt

BENCHMARK_MAIN();
