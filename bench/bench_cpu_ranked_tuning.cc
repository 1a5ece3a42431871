// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Cold-cache ranked-vs-full CPU tuning benchmark (the tentpole gate for
// the learned candidate pre-filter, profiler/cpu_rank.h).
//
// Two arms tune the same workload list from a cold cache and an empty
// tuned-block registry:
//
//   * full   — cpu_ranked_sweep off: the historical exhaustive sweep.
//   * ranked — cpu_ranked_sweep on: online GBT-stump ranking plus
//     cross-shape transfer seeding.  Early sweeps bootstrap the model at
//     full cost; later sweeps measure only the predicted top-k.
//
// Three gates, all enforced via the exit code so CI can block on them:
//
//   1. measurement reduction — the ranked arm must measure <= 1/3 of the
//      candidates the full arm measures (the >= 3x tuning-time claim);
//   2. selection quality — per workload, both arms' selected blocks are
//      re-measured back to back; the geomean of ranked/full runtime must
//      stay within 5%;
//   3. numerics — every ranked-selected block's kernel output is
//      bit-identical to the heuristic blocking's at the block's resolved
//      ISA (tuning never changes numerics within a tier), and within the
//      magnitude-aware FP32 bound (common/ulp.h) of the scalar tier.
//
// Reports the TuningClock wall/device split per arm and writes the
// BENCH_cpu_ranked_tuning.json artifact CI uploads.
//
// Flags: --smoke (small workload list for CI), --out=PATH (default
// BENCH_cpu_ranked_tuning.json), --trace[=PATH].

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/ulp.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/gemm.h"
#include "cpukernels/tuned.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

using cpukernels::BlockConfig;

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

CpuGemmWorkload Gemm(int64_t m, int64_t n, int64_t k) {
  CpuGemmWorkload w;
  w.m = m;
  w.n = n;
  w.k = k;
  return w;
}

/// Deep-K shapes so the enumerator emits several kc/mc points on any
/// cache hierarchy — a sweep worth pruning.  The ladder of nearby shapes
/// is deliberate: it is the regime transfer seeding and ranking target
/// (long-tail traffic around a few workload families).
std::vector<CpuGemmWorkload> BenchWorkloads(bool smoke) {
  std::vector<CpuGemmWorkload> ws = {
      Gemm(64, 48, 600),  Gemm(96, 32, 600),  Gemm(80, 48, 640),
      Gemm(64, 64, 512),  Gemm(96, 64, 512),  Gemm(128, 48, 512),
      Gemm(72, 40, 576),  Gemm(112, 56, 640), Gemm(88, 32, 704),
      Gemm(104, 48, 576), Gemm(120, 64, 640), Gemm(96, 48, 768),
  };
  if (!smoke) {
    ws.push_back(Gemm(160, 96, 768));
    ws.push_back(Gemm(192, 64, 768));
    ws.push_back(Gemm(224, 80, 640));
    ws.push_back(Gemm(256, 96, 512));
  }
  return ws;
}

struct ArmResult {
  int measured = 0;    // candidates actually measured across the arm
  int enumerated = 0;  // candidates the enumerator (plus seeds) produced
  int ranked_workloads = 0;
  int seeded = 0;
  double wall_s = 0.0;
  double device_s = 0.0;
  double measure_s = 0.0;
  std::vector<BlockConfig> blocks;  // selected block per workload
  std::vector<double> us;           // sweep-reported best per workload
};

ArmResult RunArm(const std::vector<CpuGemmWorkload>& ws, bool ranked) {
  cpukernels::ClearTunedBlocks();
  ProfilerCostModel cost;
  cost.cpu_ranked_sweep = ranked;
  Profiler prof(kT4, cost);
  ArmResult arm;
  for (const CpuGemmWorkload& w : ws) {
    auto r = prof.ProfileCpuGemm(w);
    if (!r.ok()) {
      std::fprintf(stderr, "profile %s failed: %s\n", w.ToString().c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
    arm.measured += r.value().candidates_tried;
    arm.enumerated += r.value().candidates_enumerated;
    arm.ranked_workloads += r.value().ranked ? 1 : 0;
    arm.seeded += r.value().seeded;
    arm.blocks.push_back(r.value().block);
    arm.us.push_back(r.value().us);
  }
  arm.wall_s = prof.clock().seconds();
  arm.device_s = prof.clock().device_seconds();
  arm.measure_s = prof.clock().measure_seconds();
  cpukernels::ClearTunedBlocks();
  return arm;
}

/// Back-to-back re-measurement of two selected blocks on one operand set,
/// interleaved best-of-5 so machine drift hits both arms equally.
struct QualityPair {
  double full_us = 0.0;
  double ranked_us = 0.0;
};

QualityPair RemeasurePair(const CpuGemmWorkload& w, const BlockConfig& full,
                          const BlockConfig& ranked) {
  QualityPair q;
  if (full == ranked) {
    // Identical selection: ratio is exactly 1 — no need to re-time.
    q.full_us = q.ranked_us = 1.0;
    return q;
  }
  CpuGemmMeasurer measurer(w);
  ThreadPool* pool = &cpukernels::ProcessPool();
  q.full_us = q.ranked_us = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    q.full_us = std::min(q.full_us, measurer.MeasureUs(full, pool, 1, 1));
    q.ranked_us =
        std::min(q.ranked_us, measurer.MeasureUs(ranked, pool, 1, 1));
  }
  return q;
}

/// Numeric check of a selected block on unit-scale operands.
///   * Same tier: against the heuristic blocking at the block's resolved
///     ISA.  Blocking never changes the per-element ascending-k
///     accumulation, so the two must be bit-identical.
///   * Across tiers: against the scalar tier, within the magnitude-aware
///     bound of common/ulp.h (Fp32GemmTierBound, scaled by K and
///     sum |a||b|).  The per-element ULP bound does not hold here: large-K
///     FP32 GEMMs drift far past it near cancellation.
/// `worst_ulps` records the largest same-tier FP32 distance seen,
/// `worst_tier_ratio` the largest cross-tier error / bound.
bool CheckBlockNumerics(const CpuGemmWorkload& w, const BlockConfig& block,
                        int64_t* worst_ulps, double* worst_tier_ratio) {
  std::vector<float> a(static_cast<size_t>(w.m * w.k));
  std::vector<float> wt(static_cast<size_t>(w.n * w.k));
  Rng ra(0xB017B017ULL), rw(0xB017B018ULL);
  ra.FillNormal(a);
  rw.FillNormal(wt);
  std::vector<float> got(static_cast<size_t>(w.m * w.n), 0.0f);
  std::vector<float> want(got.size(), 0.0f);
  std::vector<float> scalar(got.size(), 0.0f);
  const cpukernels::Epilogue epi;  // plain FP32 store
  BlockConfig ref;                 // heuristic blocking, same tier
  ref.isa = cpukernels::ResolveCpuIsa(block.isa);
  BlockConfig scalar_ref;
  scalar_ref.isa = cpukernels::CpuIsa::kScalar;
  cpukernels::GemmRaw(w.m, w.n, w.k, a.data(), wt.data(), want.data(), epi,
                      ref, nullptr);
  cpukernels::GemmRaw(w.m, w.n, w.k, a.data(), wt.data(), got.data(), epi,
                      block, nullptr);
  cpukernels::GemmRaw(w.m, w.n, w.k, a.data(), wt.data(), scalar.data(),
                      epi, scalar_ref, nullptr);
  bool tier_ok = true;
  for (int64_t i = 0; i < w.m; ++i) {
    for (int64_t j = 0; j < w.n; ++j) {
      const size_t o = static_cast<size_t>(i * w.n + j);
      *worst_ulps = std::max(*worst_ulps, Float32UlpDiff(got[o], want[o]));
      double abs_dot = 0.0;
      for (int64_t p = 0; p < w.k; ++p) {
        abs_dot += std::fabs(static_cast<double>(a[i * w.k + p]) *
                             wt[j * w.k + p]);
      }
      const double err =
          std::fabs(static_cast<double>(got[o]) - scalar[o]);
      const double bound = Fp32GemmTierBound(w.k, abs_dot);
      tier_ok &= err <= bound;
      if (bound > 0.0) {
        *worst_tier_ratio = std::max(*worst_tier_ratio, err / bound);
      }
    }
  }
  return tier_ok && std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)) == 0;
}

std::string ArmJson(const ArmResult& a) {
  return StrCat("{\"measured\":", a.measured,
                ",\"enumerated\":", a.enumerated,
                ",\"ranked_workloads\":", a.ranked_workloads,
                ",\"seeded\":", a.seeded, ",\"wall_s\":", a.wall_s,
                ",\"device_s\":", a.device_s,
                ",\"measure_s\":", a.measure_s, "}");
}

}  // namespace
}  // namespace bolt

int main(int argc, char** argv) {
  using namespace bolt;
  bench::InitTrace(argc, argv);
  bool smoke = false;
  std::string out_path = "BENCH_cpu_ranked_tuning.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::Title("cpu_ranked_tuning",
               "cold-cache ranked sweep vs exhaustive sweep");
  const std::vector<CpuGemmWorkload> ws = BenchWorkloads(smoke);
  bench::Note(StrCat(ws.size(), " workloads, arch ",
                     cpukernels::CpuArchToken()));

  const ArmResult full = RunArm(ws, /*ranked=*/false);
  const ArmResult ranked = RunArm(ws, /*ranked=*/true);

  // Gate 1: measurement reduction.
  const double reduction =
      ranked.measured > 0
          ? static_cast<double>(full.measured) / ranked.measured
          : 0.0;
  const bool reduction_ok = reduction >= 3.0;

  // Gate 2: selection quality (geomean of ranked/full runtime on
  // workloads where the arms disagree).
  double log_sum = 0.0;
  std::vector<double> ratios(ws.size(), 1.0);
  int disagreements = 0;
  for (size_t i = 0; i < ws.size(); ++i) {
    const QualityPair q = RemeasurePair(ws[i], full.blocks[i],
                                        ranked.blocks[i]);
    ratios[i] = q.ranked_us / q.full_us;
    disagreements += full.blocks[i] == ranked.blocks[i] ? 0 : 1;
    log_sum += std::log(ratios[i]);
  }
  const double quality_geomean =
      std::exp(log_sum / static_cast<double>(ws.size()));
  const bool quality_ok = quality_geomean <= 1.05;

  // Gate 3: ranked selections never change numerics within their tier
  // and stay within the magnitude-aware bound of the scalar tier.
  bool diff_ok = true;
  int64_t worst_ulps = 0;
  double worst_tier_ratio = 0.0;
  for (size_t i = 0; i < ws.size(); ++i) {
    diff_ok &= CheckBlockNumerics(ws[i], ranked.blocks[i], &worst_ulps,
                                  &worst_tier_ratio);
  }

  bench::Rule();
  std::printf("  %-8s %10s %10s %9s %9s %9s\n", "arm", "measured",
              "enumerated", "wall_s", "device_s", "measure_s");
  std::printf("  %-8s %10d %10d %9.3f %9.3f %9.3f\n", "full",
              full.measured, full.enumerated, full.wall_s, full.device_s,
              full.measure_s);
  std::printf("  %-8s %10d %10d %9.3f %9.3f %9.3f\n", "ranked",
              ranked.measured, ranked.enumerated, ranked.wall_s,
              ranked.device_s, ranked.measure_s);
  bench::Rule();
  bench::Note(StrCat("measurement reduction: ", reduction, "x (gate >= 3x: ",
                     reduction_ok ? "PASS" : "FAIL", ")"));
  bench::Note(StrCat("ranked workloads: ", ranked.ranked_workloads, "/",
                     ws.size(), ", transfer seeds: ", ranked.seeded));
  bench::Note(StrCat("selection-quality geomean (ranked/full, ",
                     disagreements, " disagreements): ", quality_geomean,
                     " (gate <= 1.05: ", quality_ok ? "PASS" : "FAIL",
                     ")"));
  bench::Note(StrCat("numerics: ", diff_ok ? "PASS" : "FAIL",
                     " (same tier: worst distance ", worst_ulps,
                     " ulps, bound 0; vs scalar: worst error / bound ",
                     worst_tier_ratio, ", bound 1)"));
  bench::Note(StrCat("tuning wall-clock: ", full.wall_s, "s full vs ",
                     ranked.wall_s, "s ranked"));

  std::string rows;
  for (size_t i = 0; i < ws.size(); ++i) {
    rows += StrCat(i == 0 ? "" : ",",
                   "{\"workload\":", bench::JsonStr(ws[i].ToString()),
                   ",\"ratio\":", ratios[i], "}");
  }
  bench::WriteBenchJson(
      out_path,
      StrCat("{\"bench\":\"cpu_ranked_tuning\",\"smoke\":",
             smoke ? "true" : "false",
             ",\"arch\":", bench::JsonStr(cpukernels::CpuArchToken()),
             ",\"full\":", ArmJson(full), ",\"ranked\":", ArmJson(ranked),
             ",\"reduction_x\":", reduction,
             ",\"quality_geomean\":", quality_geomean,
             ",\"worst_ulps\":", worst_ulps,
             ",\"worst_tier_ratio\":", worst_tier_ratio,
             ",\"gates\":{\"reduction\":", reduction_ok ? "true" : "false",
             ",\"quality\":", quality_ok ? "true" : "false",
             ",\"numerics\":", diff_ok ? "true" : "false",
             "},\"workloads\":[", rows, "]}\n"));
  bench::FlushTrace();
  return reduction_ok && quality_ok && diff_ok ? 0 : 1;
}
