// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Bolt's light-weight performance profiler (Section 3.2.2).
//
// For each operator workload the profiler enumerates the architecture's
// plausible template parameterizations (candidates.h), "measures" each one
// on the device model, and caches the winner keyed by (op, workload, arch).
// Tuning cost is accounted on a simulated TuningClock: sample programs are
// generated once per architecture and reused across models and workloads,
// so per-workload cost is measurement only — this is what gets Bolt's
// end-to-end tuning from hours (Ansor) to minutes (Fig. 10b).
//
// Concurrency.  The profiler is safe to call from many threads at once —
// the engine fans independent partitioned workloads out over a worker pool
// and several model compilations may share one profiler.  The best-config
// cache is guarded by a reader/writer lock, and profiling is single-flight
// per cache key: if two threads request the same workload, one measures
// while the other waits for the published result, so no workload is ever
// profiled twice.  With `ProfilerCostModel::num_threads > 1`, candidate
// measurement itself fans out across a worker pool with a deterministic
// reduction (ties broken by enumeration order), so a parallel run selects
// the *identical* config as a serial run; the TuningClock is then charged
// with the critical path across workers (wall) and the summed per-candidate
// cost (device seconds).

#pragma once

#include <condition_variable>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "cpukernels/config.h"
#include "cpukernels/tuned.h"
#include "cutlite/b2b.h"
#include "cutlite/conv.h"
#include "cutlite/gemm.h"
#include "device/spec.h"
#include "device/timing.h"
#include "profiler/candidates.h"
#include "profiler/cpu_rank.h"
#include "profiler/cpu_tune.h"

namespace bolt {

/// Outcome of profiling one workload.
struct ProfileResult {
  cutlite::KernelConfig config;
  double us = 0.0;
  int candidates_tried = 0;
  bool cache_hit = false;
};

/// Outcome of tuning one CPU kernel workload (real wall-clock measurement
/// of the packed kernels, unlike the simulated ProfileResult).
struct CpuProfileResult {
  cpukernels::BlockConfig block;
  double us = 0.0;
  /// Candidates actually measured.  Equal to `candidates_enumerated` for
  /// a full sweep; a ranked sweep measures only the model's top-k slice.
  int candidates_tried = 0;
  /// Full candidate-set size (enumeration plus any transfer seed) —
  /// what an unranked sweep would have measured.
  int candidates_enumerated = 0;
  /// True when the learned pre-filter chose the measured slice; false
  /// for full sweeps (ranking disabled, model unconfident, or nothing
  /// to prune).
  bool ranked = false;
  /// Candidates injected by cross-shape transfer (the tuned block of the
  /// nearest cached shape): 0 or 1.
  int seeded = 0;
  /// Activation layout the workload was measured under — part of the
  /// tuned-block registry key and the cpu/v5 record payload.  GEMM
  /// workloads are always kRowMajor.
  Layout layout = Layout::kRowMajor;
  bool cache_hit = false;
};

/// Outcome of profiling a persistent (B2B) chain.
struct B2bProfileResult {
  std::vector<cutlite::KernelConfig> configs;  // one per stage
  cutlite::ResidenceKind residence = cutlite::ResidenceKind::kRegisterFile;
  double fused_us = 0.0;
  double unfused_us = 0.0;
  bool beneficial = false;
  bool feasible = false;
  bool cache_hit = false;
};

/// Simulated seconds of the one-time per-architecture sample-program
/// generation, spread over `kPregenPrograms` independent programs that a
/// parallel profiler's workers compile concurrently.
inline constexpr double kArchPregenSeconds = 90.0;
inline constexpr int kPregenPrograms = 64;

/// A ranked CPU sweep measures max(kCpuRankMinKeep, kCpuRankKeepFraction *
/// candidates) top-predicted candidates (the heuristic candidate and the
/// transfer seed ride along on top).
inline constexpr double kCpuRankKeepFraction = 0.125;
inline constexpr int kCpuRankMinKeep = 4;

/// The profiler's settable parallelism and ranking knobs.
struct ProfilerCostModel {
  /// Number of measurement workers (the paper's RPC runner fleet).  Values
  /// <= 1 keep the profiler fully serial — identical behavior *and*
  /// identical clock accounting to the historical implementation.  Larger
  /// values fan candidate measurement out over a worker pool and account
  /// wall time as the critical path across workers.
  int num_threads = 1;
  /// Learned pre-filter for the CPU sweeps (profiler/cpu_rank.h): rank
  /// candidates with the online GBT-stump model and measure only the
  /// top-k slice, falling back to the full sweep while the model is
  /// unconfident.  Also enables cross-shape transfer seeding.  Disable
  /// for the exhaustive-sweep baseline (bench_cpu_ranked_tuning's
  /// control arm).
  bool cpu_ranked_sweep = true;
  /// Confidence gate: minimum measured training rows before ranking.
  /// One full deep-K sweep (~16-25 candidates) is enough to bootstrap:
  /// the heuristic candidate is always measured as a safety net, so the
  /// cost of a marginal model is a slightly worse pruned set, not a bad
  /// selection.
  int cpu_rank_min_rows = 16;
  /// Confidence gate: minimum predicted spread (-log(us) space) across a
  /// candidate set; flatter predictions fall back to the full sweep.
  /// Boosted stumps compress toward the mean, so predicted spread runs
  /// well under the measured runtime spread — 0.01 here corresponds to
  /// candidate sets whose real spread is a few percent.
  double cpu_rank_min_spread = 0.01;
};

class Profiler {
 public:
  explicit Profiler(DeviceSpec spec, ProfilerCostModel cost = {});

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Best template parameters for a GEMM workload.
  Result<ProfileResult> ProfileGemm(const cutlite::GemmCoord& problem,
                                    const cutlite::EpilogueSpec& epilogue);

  /// Best template parameters for a Conv2D workload.
  Result<ProfileResult> ProfileConv(const cutlite::ConvProblem& problem,
                                    const cutlite::EpilogueSpec& epilogue);

  /// Best persistent-kernel parameterization for a two-stage GEMM chain,
  /// trying both residence strategies; reports whether fusion beats the
  /// unfused (epilogue-fused) pair.
  B2bProfileResult ProfileB2bGemm(
      const std::vector<cutlite::GemmCoord>& problems,
      const std::vector<cutlite::EpilogueSpec>& epilogues);

  /// Same for a Conv chain (first conv arbitrary, later stages 1x1).
  B2bProfileResult ProfileB2bConv(
      const std::vector<cutlite::ConvProblem>& problems,
      const std::vector<cutlite::EpilogueSpec>& epilogues);

  /// Best CPU blocking for a GEMM workload, by real wall-clock measurement
  /// of the packed kernels (cpu_tune.h).  The winner is published to the
  /// process-wide tuned-block registry (cpukernels/tuned.h) — on both the
  /// measured and the cache-hit path — so every interpreter launch (the
  /// engine's bolt.* kernels included) picks it up at execution time.  Results
  /// are cached under the versioned `cpu/` key namespace (keyed by
  /// problem, thread count, and the detected cache hierarchy) and persist
  /// through Save/LoadCache; elapsed measurement time is charged to the
  /// TuningClock.  Thread-safe and single-flight like ProfileGemm.
  Result<CpuProfileResult> ProfileCpuGemm(const CpuGemmWorkload& workload);

  /// Same for an implicit-GEMM conv workload; the registry entry is keyed
  /// by the conv's implicit-GEMM dims under TunedKind::kConv.
  Result<CpuProfileResult> ProfileCpuConv(const CpuConvWorkload& workload);

  const TuningClock& clock() const { return clock_; }
  TuningClock& clock() { return clock_; }
  const DeviceSpec& spec() const { return spec_; }
  int cache_size() const;
  /// Number of cached CPU tuning results (the `cpu/` namespace).
  int cpu_cache_size() const;

  /// Worker pool used for candidate- and workload-level fan-out; nullptr
  /// when the profiler is configured serial (num_threads <= 1).
  ThreadPool* pool() { return pool_.get(); }

  /// Serialize the best-config cache (the analogue of TVM's tophub tuning
  /// logs). Text format, one record per line; stable across sessions so a
  /// deployment can skip re-profiling known workloads entirely.  See
  /// docs/TUNING_CACHE.md for the v1 grammar.
  Status SaveCache(std::ostream& out) const;
  /// Merge records from a saved cache.  A malformed GPU record rejects the
  /// whole file, and then nothing of it is merged; a malformed, foreign or
  /// wrong-version `cpu/` record is dropped alone.
  Status LoadCache(std::istream& in);

  /// Save the cache to `path` atomically: the serialized cache is written
  /// to a uniquely-named temp file in the same directory and renamed over
  /// `path`, so a crash mid-save or a concurrent LoadCacheFile can never
  /// observe a torn file (which the strict LoadCache grammar would reject,
  /// silently dropping the whole cache).
  Status SaveCacheFile(const std::string& path) const;
  /// Load and merge a cache file previously written by SaveCacheFile.
  Status LoadCacheFile(const std::string& path);

 private:
  /// Charges the one-time architecture pre-generation cost on first use.
  void EnsureArchPrepared();
  /// Charges measurement cost for candidates with the given latencies, in
  /// enumeration order.  Serial mode charges each individually (bit-exact
  /// with the historical accounting); parallel mode charges the critical
  /// path across `num_threads` round-robin workers as wall time and the
  /// sum as device time.  When tracing is enabled, one span per busy
  /// worker lane named `label` is emitted on the simulated tuning
  /// timeline (trace::kPidTuning, tid == worker id).
  void ChargeMeasurements(const std::string& label,
                          const std::vector<double>& candidate_us);

  /// Single-flight admission for `key` in `cache`.  Returns true with
  /// `*hit` filled (and `hits` counted) when another thread already
  /// published (or is publishing) the result; returns false (counting
  /// `misses`) when the caller owns the flight and must profile, then
  /// publish via PublishResult or abandon via AbandonFlight.
  template <typename R>
  bool LookupOrBeginFlight(const std::map<std::string, R>& cache,
                           const std::string& key, R* hit,
                           metrics::Counter& hits, metrics::Counter& misses);
  /// Stores `result` under `key` in `cache`, then releases the flight.
  template <typename R>
  void PublishResult(std::map<std::string, R>& cache, const std::string& key,
                     const R& result);
  void AbandonFlight(const std::string& key);

  /// Winner of a simulated sweep (profiler.cc).
  struct SweepWinner;
  /// Estimates candidates [0, n) on the device model (nullopt: cannot be
  /// implemented), fanned out over the pool, then charges the clock for the
  /// feasible ones in enumeration order, counts them in the profiler.*
  /// metrics, and returns the earliest fastest one.
  SweepWinner Sweep(
      const std::string& key, int64_t n,
      const std::function<std::optional<double>(int64_t)>& estimate);
  /// The searches behind ProfileGemm / ProfileConv and ProfileB2bGemm /
  /// ProfileB2bConv, for Problem = GemmCoord or ConvProblem.
  template <typename Problem>
  Result<ProfileResult> ProfileKernel(const Problem& problem,
                                      const cutlite::EpilogueSpec& epilogue);
  template <typename Problem>
  B2bProfileResult ProfileChain(
      const std::vector<Problem>& problems,
      const std::vector<cutlite::EpilogueSpec>& epilogues);

  /// Shared sweep for ProfileCpuGemm/ProfileCpuConv: seeds the candidate
  /// list from the nearest tuned shape (cross-shape transfer), asks the
  /// online rank model for a top-k slice (full sweep when unconfident),
  /// measures the selected candidates serially with `measure`, reduces
  /// deterministically, trains the rank model from the new measurements,
  /// charges the TuningClock with the real elapsed seconds, emits the
  /// bolt.cpu.tune span, publishes to both caches and the tuned-block
  /// registry.
  Result<CpuProfileResult> RunCpuSweep(
      const std::string& key, cpukernels::TunedKind kind, int64_t m,
      int64_t n, int64_t k, Layout layout,
      const std::vector<cpukernels::BlockConfig>& candidates,
      const std::function<double(const cpukernels::BlockConfig&)>& measure);

  /// Parses and merges one `cpu/` cache record; returns false (leaving the
  /// caches untouched) when the line is malformed, has the wrong version,
  /// or names a foreign arch token — cpu records are rejected individually
  /// rather than failing the whole load, since a cache file legitimately
  /// accretes entries from several machines.
  bool MergeCpuCacheLine(const std::vector<std::string>& fields);

  /// Claims `key` in the in-flight set, blocking while another thread holds
  /// it.  Returns true after claiming the flight; returns false when a
  /// concurrent flight finished — the caller must then re-check the cache.
  bool TryClaimFlight(const std::string& key);

  DeviceSpec spec_;
  ProfilerCostModel cost_;
  std::unique_ptr<ThreadPool> pool_;

  /// Guards the tuning clock and the one-time arch preparation flag.
  std::mutex clock_mu_;
  TuningClock clock_;
  bool arch_prepared_ = false;

  /// Online candidate-ranking model for the CPU sweeps, trained from
  /// every real measurement this profiler makes (gemm and conv share it;
  /// the kernel family is a feature).  Guarded by rank_mu_: sweeps for
  /// different workloads may rank/train concurrently.
  std::mutex rank_mu_;
  CpuRankModel cpu_rank_;

  /// Reader/writer lock over both result caches.
  mutable std::shared_mutex cache_mu_;
  std::map<std::string, ProfileResult> cache_;
  std::map<std::string, B2bProfileResult> b2b_cache_;
  std::map<std::string, CpuProfileResult> cpu_cache_;

  /// Single-flight bookkeeping: keys currently being profiled.
  std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  std::set<std::string> inflight_;
};

}  // namespace bolt
