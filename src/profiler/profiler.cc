#include "profiler/profiler.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include <chrono>

#include "common/fileio.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"

namespace bolt {

using cutlite::B2bGemmKernel;
using cutlite::B2bConvKernel;
using cutlite::B2bStage;
using cutlite::B2bConvStage;
using cutlite::Conv2dKernel;
using cutlite::ConvProblem;
using cutlite::EpilogueSpec;
using cutlite::GemmCoord;
using cutlite::GemmKernel;
using cutlite::KernelConfig;
using cutlite::ResidenceKind;

namespace {

/// The B2B search grid: shared threadblock-M and warp-count constraints
/// across both residence strategies, in a fixed enumeration order so the
/// parallel reduction ties break identically to the serial loop.
struct B2bCombo {
  ResidenceKind residence;
  int tb_m;
  int warps;
};

std::vector<B2bCombo> EnumerateB2bCombos() {
  std::vector<B2bCombo> combos;
  for (ResidenceKind residence :
       {ResidenceKind::kRegisterFile, ResidenceKind::kSharedMemory}) {
    for (int tb_m : {64, 128, 256}) {
      for (int warps : {2, 4, 8}) {
        combos.push_back(B2bCombo{residence, tb_m, warps});
      }
    }
  }
  return combos;
}

/// Measurement discipline of the simulated sweeps: each candidate costs
/// `kWarmupRuns + kMeasureRuns` launches plus a fixed dispatch and
/// result-collection overhead.
constexpr int kWarmupRuns = 5;
constexpr int kMeasureRuns = 20;
constexpr double kPerCandidateOverheadSeconds = 0.004;

/// Real-measurement discipline of the CPU sweeps: each candidate runs
/// `kCpuWarmupRuns` unmeasured launches then `kCpuMeasureRuns` timed ones,
/// keeping the minimum.  Candidates are swept serially (each launch may
/// itself use the whole process pool), so these bound the wall cost.
constexpr int kCpuWarmupRuns = 1;
constexpr int kCpuMeasureRuns = 3;

/// What the simulated sweeps need to know about one kernel family: its
/// standalone and persistent kernels, its cache-key op and error name, its
/// candidate enumerator, and how a B2B stage candidate, enumerated over the
/// implicit-GEMM view, adapts to the problem.
template <typename Problem>
struct KernelFamily;

template <>
struct KernelFamily<GemmCoord> {
  using Kernel = GemmKernel;
  using Chain = B2bGemmKernel;
  using Stage = B2bStage;
  static constexpr char kOp[] = "gemm";
  static constexpr char kName[] = "GEMM";
  static constexpr auto Enumerate = &EnumerateGemmCandidates;
  static GemmCoord AsGemm(const GemmCoord& p) { return p; }
  static KernelConfig StageConfig(const GemmCoord&, KernelConfig c) {
    return c;
  }
};

template <>
struct KernelFamily<ConvProblem> {
  using Kernel = Conv2dKernel;
  using Chain = B2bConvKernel;
  using Stage = B2bConvStage;
  static constexpr char kOp[] = "conv";
  static constexpr char kName[] = "Conv";
  static constexpr auto Enumerate = &EnumerateConvCandidates;
  static GemmCoord AsGemm(const ConvProblem& p) { return p.AsGemm(); }
  /// Conv alignments come from channel counts.
  static KernelConfig StageConfig(const ConvProblem& p, KernelConfig c) {
    c.align_a = MaxAlignment(p.c);
    c.align_b = MaxAlignment(p.c);
    c.align_c = MaxAlignment(p.k);
    return c;
  }
};

/// Profiler-wide instruments, resolved once (Registry handles stay valid
/// for the process lifetime; updates after that are lock-free).  All are
/// per-workload granularity — the per-candidate hot loop stays untouched.
struct ProfilerInstruments {
  metrics::Counter& workloads_profiled;
  metrics::Counter& candidates_enumerated;
  metrics::Counter& candidates_measured;
  metrics::Counter& cache_hits;
  metrics::Counter& cache_misses;
  metrics::Counter& single_flight_waits;
  metrics::Histogram& workload_best_us;

  static ProfilerInstruments& Get() {
    static ProfilerInstruments* instruments = new ProfilerInstruments{
        metrics::Registry::Global().GetCounter("profiler.workloads_profiled"),
        metrics::Registry::Global().GetCounter(
            "profiler.candidates_enumerated"),
        metrics::Registry::Global().GetCounter(
            "profiler.candidates_measured"),
        metrics::Registry::Global().GetCounter("profiler.cache_hits"),
        metrics::Registry::Global().GetCounter("profiler.cache_misses"),
        metrics::Registry::Global().GetCounter(
            "profiler.single_flight_waits"),
        metrics::Registry::Global().GetHistogram(
            "profiler.workload_best_us"),
    };
    return *instruments;
  }
};

/// Instruments for the CPU blocking autotuner (workload granularity; the
/// per-candidate measurement loop stays untouched).
struct CpuTuneInstruments {
  metrics::Counter& workloads;
  metrics::Counter& candidates;
  metrics::Counter& cache_hits;
  metrics::Counter& cache_misses;
  metrics::Counter& cache_lines_rejected;
  metrics::Histogram& best_us;
  /// Ranked-sweep lane (docs/OBSERVABILITY.md): sweeps where the learned
  /// pre-filter picked the measured slice, candidates it skipped, sweeps
  /// that wanted ranking but fell back to the full set, and candidates
  /// injected by cross-shape transfer.
  metrics::Counter& ranked_workloads;
  metrics::Counter& ranked_pruned;
  metrics::Counter& ranked_fallback;
  metrics::Counter& ranked_seeded;

  static CpuTuneInstruments& Get() {
    static CpuTuneInstruments* instruments = new CpuTuneInstruments{
        metrics::Registry::Global().GetCounter("cpu.tune.workloads"),
        metrics::Registry::Global().GetCounter("cpu.tune.candidates"),
        metrics::Registry::Global().GetCounter("cpu.tune.cache_hits"),
        metrics::Registry::Global().GetCounter("cpu.tune.cache_misses"),
        metrics::Registry::Global().GetCounter(
            "cpu.tune.cache_lines_rejected"),
        metrics::Registry::Global().GetHistogram("cpu.tune.best_us"),
        metrics::Registry::Global().GetCounter("cpu.tune.ranked.workloads"),
        metrics::Registry::Global().GetCounter("cpu.tune.ranked.pruned"),
        metrics::Registry::Global().GetCounter("cpu.tune.ranked.fallback"),
        metrics::Registry::Global().GetCounter("cpu.tune.ranked.seeded"),
    };
    return *instruments;
  }
};

/// The versioned key prefix of the CPU tuning-cache namespace.  Grammar
/// (docs/TUNING_CACHE.md):
///   cpu/v5/<op>/<workload>/t<threads>/<cpu-arch-token>
///     |mc kc nc scheme isa prefetch layout|us|tried|enumerated ranked seeded
/// v5 appended the activation layout to the block payload (conv records:
/// NCHW / NHWC / NCHWc; gemm records: RowMajor) so tuned blocks register
/// under the layout-keyed registry; v4 widened the ISA range to admit the
/// AVX-512 tier (isa 0..3) and appended the software-prefetch flag to the
/// block payload; v3 appended the ranked-sweep provenance field (how many
/// candidates the enumerator produced, whether the learned pre-filter
/// pruned the sweep, and whether a cross-shape transfer seed was
/// injected); v2 added the micro-kernel ISA to the block payload.
/// Older-version records are dropped at load like any other unknown
/// version.
constexpr char kCpuKeyPrefix[] = "cpu/";
constexpr char kCpuKeyVersion[] = "v5";

/// Layout values admissible in a cpu/v5 record's block payload, by op.
bool ValidCpuRecordLayout(cpukernels::TunedKind kind, int layout) {
  if (kind == cpukernels::TunedKind::kGemm) {
    return layout == static_cast<int>(Layout::kRowMajor);
  }
  return layout == static_cast<int>(Layout::kNCHW) ||
         layout == static_cast<int>(Layout::kNHWC) ||
         layout == static_cast<int>(Layout::kNCHWc);
}

std::string CpuCacheKey(const char* op, const std::string& workload,
                        int threads) {
  return StrCat(kCpuKeyPrefix, kCpuKeyVersion, "/", op, "/", workload,
                "/t", threads, "/", cpukernels::CpuArchToken());
}

}  // namespace

Profiler::Profiler(DeviceSpec spec, ProfilerCostModel cost)
    : spec_(std::move(spec)), cost_(cost) {
  if (cost_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(cost_.num_threads);
  }
  CpuRankModel::Options rank_opts;
  rank_opts.min_rows = cost_.cpu_rank_min_rows;
  rank_opts.min_spread = cost_.cpu_rank_min_spread;
  cpu_rank_ = CpuRankModel(rank_opts);
}

int Profiler::cache_size() const {
  std::shared_lock<std::shared_mutex> read(cache_mu_);
  return static_cast<int>(cache_.size());
}

int Profiler::cpu_cache_size() const {
  std::shared_lock<std::shared_mutex> read(cache_mu_);
  return static_cast<int>(cpu_cache_.size());
}

Status Profiler::SaveCache(std::ostream& out) const {
  std::shared_lock<std::shared_mutex> read(cache_mu_);
  out << "# bolt tuning cache v1 arch=" << spec_.arch << "\n";
  out.precision(17);  // exact double round-trip
  for (const auto& [key, result] : cache_) {
    const KernelConfig& c = result.config;
    out << key << "|" << c.threadblock.m << " " << c.threadblock.n << " "
        << c.threadblock.k << " " << c.warp.m << " " << c.warp.n << " "
        << c.warp.k << " " << c.instruction.m << " " << c.instruction.n
        << " " << c.instruction.k << " " << c.stages << " "
        << cutlite::SwizzleWidth(c.swizzle) << " " << c.align_a << " " << c.align_b
        << " " << c.align_c << " " << c.split_k << "|" << result.us << "|"
        << result.candidates_tried << "\n";
  }
  // CPU records ride in the same file under the `cpu/` key namespace.
  // Their keys embed their own version and arch token, so the v1 header
  // above governs only the GPU records.
  for (const auto& [key, result] : cpu_cache_) {
    const cpukernels::BlockConfig& b = result.block;
    out << key << "|" << b.mc << " " << b.kc << " " << b.nc << " "
        << static_cast<int>(b.scheme) << " " << static_cast<int>(b.isa)
        << " " << (b.prefetch ? 1 : 0) << " "
        << static_cast<int>(result.layout)
        << "|" << result.us << "|" << result.candidates_tried << "|"
        << result.candidates_enumerated << " " << (result.ranked ? 1 : 0)
        << " " << result.seeded << "\n";
  }
  if (!out.good()) return Status::Internal("cache write failed");
  return Status::Ok();
}

Status Profiler::LoadCache(std::istream& in) {
  // Nothing is merged until the whole file has parsed: a rejected file
  // must leave no record, registry entry or arch flag behind.
  std::vector<std::pair<std::string, ProfileResult>> records;
  std::vector<std::vector<std::string>> cpu_lines;
  bool arch_prepared = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      // Pre-generated sample programs persist on disk next to the log; a
      // cache whose header names *exactly* this architecture means they
      // need not be rebuilt.  Token equality, not substring: a cache saved
      // for arch "sm75x" must not mark an "sm75" profiler prepared.
      for (const std::string& token : StrSplit(line, ' ')) {
        if (token == StrCat("arch=", spec_.arch)) arch_prepared = true;
      }
      continue;
    }
    const auto fields = StrSplit(line, '|');
    if (StartsWith(line, kCpuKeyPrefix)) {
      cpu_lines.push_back(fields);
      continue;
    }
    if (fields.size() != 4) {
      return Status::InvalidArgument(
          StrCat("malformed cache record at line ", line_no));
    }
    ProfileResult result;
    KernelConfig& c = result.config;
    int swizzle_width = 4;
    std::istringstream cfg(fields[1]);
    cfg >> c.threadblock.m >> c.threadblock.n >> c.threadblock.k >>
        c.warp.m >> c.warp.n >> c.warp.k >> c.instruction.m >>
        c.instruction.n >> c.instruction.k >> c.stages >> swizzle_width >>
        c.align_a >> c.align_b >> c.align_c >> c.split_k;
    if (cfg.fail()) {
      return Status::InvalidArgument(
          StrCat("malformed kernel config at line ", line_no));
    }
    cfg >> std::ws;
    if (!cfg.eof()) {
      return Status::InvalidArgument(
          StrCat("trailing garbage in kernel config at line ", line_no));
    }
    if (swizzle_width != 1 && swizzle_width != 2 && swizzle_width != 4 &&
        swizzle_width != 8) {
      return Status::InvalidArgument(StrCat("invalid swizzle width ",
                                            swizzle_width, " at line ",
                                            line_no));
    }
    c.swizzle = static_cast<cutlite::Swizzle>(swizzle_width);
    if (!ParseDouble(fields[2], &result.us)) {
      return Status::InvalidArgument(
          StrCat("malformed latency at line ", line_no));
    }
    if (!ParseInt(fields[3], &result.candidates_tried)) {
      return Status::InvalidArgument(
          StrCat("malformed candidate count at line ", line_no));
    }
    if (result.us <= 0.0) {
      return Status::InvalidArgument(
          StrCat("non-positive latency at line ", line_no));
    }
    if (result.candidates_tried <= 0) {
      return Status::InvalidArgument(
          StrCat("non-positive candidate count at line ", line_no));
    }
    records.emplace_back(fields[0], result);
  }

  {
    std::unique_lock<std::shared_mutex> write(cache_mu_);
    for (const auto& [key, result] : records) cache_[key] = result;
    // CPU records are machine-specific real measurements, and one file
    // legitimately accretes records from several machines and thread
    // configurations.  A record that is corrupt, wrong-version, or from a
    // foreign arch is therefore dropped *individually* — the rest of the
    // file (GPU and CPU alike) still loads.
    for (const auto& fields : cpu_lines) {
      if (!MergeCpuCacheLine(fields)) {
        CpuTuneInstruments::Get().cache_lines_rejected.Increment();
      }
    }
  }
  if (arch_prepared) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    arch_prepared_ = true;
  }
  return Status::Ok();
}

namespace {

/// Parses the leading "MxNxK" of a cpu cache-key workload field (conv
/// workloads append "__<geometry>" after the implicit-GEMM dims).
bool ParseCpuWorkloadDims(const std::string& s, int64_t* m, int64_t* n,
                          int64_t* k) {
  const std::string dims = s.substr(0, s.find("__"));
  const auto parts = StrSplit(dims, 'x');
  if (parts.size() != 3) return false;
  int vals[3];
  for (int i = 0; i < 3; ++i) {
    if (!ParseInt(parts[i], &vals[i]) || vals[i] <= 0) return false;
  }
  *m = vals[0];
  *n = vals[1];
  *k = vals[2];
  return true;
}

}  // namespace

bool Profiler::MergeCpuCacheLine(const std::vector<std::string>& fields) {
  // Caller (LoadCache) holds cache_mu_ exclusively.
  if (fields.size() != 5) return false;
  // Key: cpu/v5/<op>/<workload>/t<threads>/<cpu-arch-token>
  const auto parts = StrSplit(fields[0], '/');
  if (parts.size() != 6) return false;
  if (parts[1] != kCpuKeyVersion) return false;
  cpukernels::TunedKind kind;
  if (parts[2] == "gemm") {
    kind = cpukernels::TunedKind::kGemm;
  } else if (parts[2] == "conv") {
    kind = cpukernels::TunedKind::kConv;
  } else {
    return false;
  }
  int64_t m = 0, n = 0, k = 0;
  if (!ParseCpuWorkloadDims(parts[3], &m, &n, &k)) return false;
  if (parts[4].size() < 2 || parts[4][0] != 't') return false;
  int threads = 0;
  if (!ParseInt(parts[4].substr(1), &threads) || threads <= 0) return false;
  if (parts[5] != cpukernels::CpuArchToken()) return false;  // foreign arch

  int mc = 0, kc = 0, nc = 0, scheme = 0, isa = 0, prefetch = 0, layout = 0;
  std::istringstream cfg(fields[1]);
  cfg >> mc >> kc >> nc >> scheme >> isa >> prefetch >> layout;
  if (cfg.fail()) return false;
  cfg >> std::ws;
  if (!cfg.eof()) return false;
  if (scheme != 0 && scheme != 1) return false;
  if (isa < 0 || isa > 3) return false;
  if (prefetch != 0 && prefetch != 1) return false;
  if (!ValidCpuRecordLayout(kind, layout)) return false;
  auto made = cpukernels::BlockConfig::Make(
      mc, kc, nc, static_cast<cpukernels::ParallelScheme>(scheme),
      static_cast<cpukernels::CpuIsa>(isa), prefetch == 1);
  if (!made.ok()) return false;

  CpuProfileResult result;
  result.block = made.value();
  result.layout = static_cast<Layout>(layout);
  if (!ParseDouble(fields[2], &result.us) || result.us <= 0.0) return false;
  if (!ParseInt(fields[3], &result.candidates_tried) ||
      result.candidates_tried <= 0) {
    return false;
  }
  // Provenance field: "<enumerated> <ranked> <seeded>".  A ranked sweep
  // measures a subset, so enumerated bounds tried from above; ranked and
  // seeded are flags.
  int enumerated = 0, ranked = 0, seeded = 0;
  std::istringstream prov(fields[4]);
  prov >> enumerated >> ranked >> seeded;
  if (prov.fail()) return false;
  prov >> std::ws;
  if (!prov.eof()) return false;
  if (enumerated < result.candidates_tried) return false;
  if (ranked != 0 && ranked != 1) return false;
  if (seeded != 0 && seeded != 1) return false;
  result.candidates_enumerated = enumerated;
  result.ranked = ranked != 0;
  result.seeded = seeded;
  cpu_cache_[fields[0]] = result;
  // Activate for execution only when the record was measured under this
  // deployment's thread configuration; other thread counts stay cached
  // (they round-trip through SaveCache) but dormant.
  if (threads == cpukernels::DefaultNumThreads()) {
    cpukernels::RegisterTunedBlock(kind, m, n, k, result.block,
                                   result.layout);
  }
  return true;
}

Status Profiler::SaveCacheFile(const std::string& path) const {
  std::ostringstream out;
  Status st = SaveCache(out);
  if (!st.ok()) return st;
  return WriteFileAtomic(path, out.str());
}

Status Profiler::LoadCacheFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open cache file ", path));
  }
  return LoadCache(in);
}

void Profiler::EnsureArchPrepared() {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (arch_prepared_) return;
  arch_prepared_ = true;
  // Sample programs are generated and compiled once per architecture and
  // reused across every model and workload thereafter.  Workers compile the
  // `kPregenPrograms` independent programs in parallel, so the wall cost is
  // the critical path (rounds of `workers` programs) while the full cost
  // still lands on device seconds; a serial profiler pays it all as wall.
  const int workers = std::max(1, cost_.num_threads);
  trace::TraceSink& sink = trace::TraceSink::Global();
  const double base_s = sink.enabled() ? clock_.seconds() : 0.0;
  const int rounds = (kPregenPrograms + workers - 1) / workers;
  const double wall = kArchPregenSeconds * static_cast<double>(rounds) /
                      static_cast<double>(kPregenPrograms);
  clock_.ChargeCompileParallel(kArchPregenSeconds, wall);
  if (sink.enabled()) {
    // One lane span per worker: lane i compiles programs i, i+workers, ...
    // (round-robin), mirroring the wall accounting above exactly.
    const double per_program_s = kArchPregenSeconds / kPregenPrograms;
    for (int w = 0; w < workers && w < kPregenPrograms; ++w) {
      const int lane_programs = (kPregenPrograms - w + workers - 1) / workers;
      sink.EmitSpan(trace::kPidTuning, w, StrCat("pregen/", spec_.arch),
                    "tuning", base_s * 1e6,
                    (base_s + lane_programs * per_program_s) * 1e6,
                    StrCat("{\"programs\":", lane_programs, "}"));
    }
  }
}

void Profiler::ChargeMeasurements(const std::string& label,
                                  const std::vector<double>& candidate_us) {
  if (candidate_us.empty()) return;
  std::lock_guard<std::mutex> lock(clock_mu_);
  const double runs = kWarmupRuns + kMeasureRuns;
  const int workers = std::max(1, cost_.num_threads);
  trace::TraceSink& sink = trace::TraceSink::Global();
  const double base_s = sink.enabled() ? clock_.seconds() : 0.0;
  if (workers == 1) {
    // Charge per candidate in enumeration order — bit-exact with the
    // historical serial accounting.
    for (double us : candidate_us) {
      clock_.ChargeMeasure(runs * us * 1e-6 + kPerCandidateOverheadSeconds);
    }
    if (sink.enabled()) {
      sink.EmitSpan(trace::kPidTuning, 0, label, "tuning", base_s * 1e6,
                    clock_.seconds() * 1e6,
                    StrCat("{\"candidates\":", candidate_us.size(), "}"));
    }
    return;
  }
  // Deterministic parallel accounting: candidates are assigned round-robin
  // to workers in enumeration order (independent of real thread timing);
  // wall time is the busiest worker's lane, device time is the sum.
  std::vector<double> lane(workers, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < candidate_us.size(); ++i) {
    const double s =
        runs * candidate_us[i] * 1e-6 + kPerCandidateOverheadSeconds;
    lane[i % workers] += s;
    total += s;
  }
  const double wall = *std::max_element(lane.begin(), lane.end());
  clock_.ChargeMeasureParallel(total, wall);
  if (sink.enabled()) {
    // One span per busy worker lane, all starting when the fan-out begins;
    // the busiest lane's span ends exactly at the new wall-clock reading.
    for (int w = 0; w < workers; ++w) {
      if (lane[w] <= 0.0) continue;
      const size_t lane_candidates =
          (candidate_us.size() - w + workers - 1) / workers;
      sink.EmitSpan(trace::kPidTuning, w, label, "tuning", base_s * 1e6,
                    (base_s + lane[w]) * 1e6,
                    StrCat("{\"candidates\":", lane_candidates, "}"));
    }
  }
}

bool Profiler::TryClaimFlight(const std::string& key) {
  std::unique_lock<std::mutex> lock(flight_mu_);
  if (inflight_.insert(key).second) return true;
  ProfilerInstruments::Get().single_flight_waits.Increment();
  flight_cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
  return false;
}

// Admission re-checks the cache after claiming a flight: an owner
// publishes to the cache before it releases the key, so a thread that
// missed the cache just before that publish and claimed the key just
// after it finds the result there instead of profiling the workload again.
template <typename R>
bool Profiler::LookupOrBeginFlight(const std::map<std::string, R>& cache,
                                   const std::string& key, R* hit,
                                   metrics::Counter& hits,
                                   metrics::Counter& misses) {
  for (bool claimed = false;; claimed = TryClaimFlight(key)) {
    bool found = false;
    {
      std::shared_lock<std::shared_mutex> read(cache_mu_);
      auto it = cache.find(key);
      if (it != cache.end()) {
        *hit = it->second;
        hit->cache_hit = found = true;
      }
    }
    if (found) {
      if (claimed) AbandonFlight(key);
      hits.Increment();
      return true;
    }
    if (claimed) {
      misses.Increment();
      return false;
    }
  }
}

template <typename R>
void Profiler::PublishResult(std::map<std::string, R>& cache,
                             const std::string& key, const R& result) {
  {
    std::unique_lock<std::shared_mutex> write(cache_mu_);
    cache[key] = result;
  }
  AbandonFlight(key);
}

void Profiler::AbandonFlight(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    inflight_.erase(key);
  }
  flight_cv_.notify_all();
}

/// The earliest fastest feasible candidate (index -1 when none is
/// feasible) and the number of feasible candidates.
struct Profiler::SweepWinner {
  int64_t index = -1;
  double us = std::numeric_limits<double>::infinity();
  int feasible = 0;
};

Profiler::SweepWinner Profiler::Sweep(
    const std::string& key, int64_t n,
    const std::function<std::optional<double>(int64_t)>& estimate) {
  std::vector<std::optional<double>> us(n);
  auto eval = [&](int64_t i) { us[i] = estimate(i); };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(n, eval);
  } else {
    for (int64_t i = 0; i < n; ++i) eval(i);
  }

  // Deterministic reduction in enumeration order (strict less keeps the
  // earliest of tied candidates, exactly like the serial loop).
  SweepWinner best;
  std::vector<double> measured;
  measured.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (!us[i].has_value()) continue;
    measured.push_back(*us[i]);
    if (*us[i] < best.us) {
      best.us = *us[i];
      best.index = i;
    }
  }
  best.feasible = static_cast<int>(measured.size());
  ChargeMeasurements(key, measured);
  ProfilerInstruments& im = ProfilerInstruments::Get();
  im.candidates_enumerated.Increment(n);
  im.candidates_measured.Increment(static_cast<int64_t>(measured.size()));
  if (best.index >= 0) {
    im.workloads_profiled.Increment();
    im.workload_best_us.Observe(best.us);
  }
  return best;
}

template <typename Problem>
Result<ProfileResult> Profiler::ProfileKernel(const Problem& problem,
                                              const EpilogueSpec& epilogue) {
  using Family = KernelFamily<Problem>;
  const std::string key =
      StrCat(Family::kOp, "/", problem.ToString(), "/", epilogue.ToString(),
             "/", spec_.arch);
  ProfileResult result;
  ProfilerInstruments& im = ProfilerInstruments::Get();
  if (LookupOrBeginFlight(cache_, key, &result, im.cache_hits,
                          im.cache_misses)) {
    return result;
  }
  EnsureArchPrepared();  // sample-program generation: only when measuring

  const std::vector<KernelConfig> candidates =
      Family::Enumerate(spec_, problem);
  const SweepWinner best =
      Sweep(key, static_cast<int64_t>(candidates.size()),
            [&](int64_t i) -> std::optional<double> {
              typename Family::Kernel kernel(problem, candidates[i], epilogue);
              if (!kernel.CanImplement(spec_).ok()) return std::nullopt;
              return kernel.EstimateUs(spec_);
            });
  if (best.index < 0) {
    AbandonFlight(key);
    return Status::NotFound(StrCat("no feasible kernel for ", Family::kName,
                                   " ", problem.ToString()));
  }
  result.config = candidates[best.index];
  result.us = best.us;
  result.candidates_tried = best.feasible;
  PublishResult(cache_, key, result);
  return result;
}

Result<ProfileResult> Profiler::ProfileGemm(const GemmCoord& problem,
                                            const EpilogueSpec& epilogue) {
  return ProfileKernel(problem, epilogue);
}

Result<ProfileResult> Profiler::ProfileConv(const ConvProblem& problem,
                                            const EpilogueSpec& epilogue) {
  return ProfileKernel(problem, epilogue);
}

Result<CpuProfileResult> Profiler::RunCpuSweep(
    const std::string& key, cpukernels::TunedKind kind, int64_t m,
    int64_t n, int64_t k, Layout layout,
    const std::vector<cpukernels::BlockConfig>& candidates,
    const std::function<double(const cpukernels::BlockConfig&)>& measure) {
  CpuProfileResult cached;
  CpuTuneInstruments& im = CpuTuneInstruments::Get();
  if (LookupOrBeginFlight(cpu_cache_, key, &cached, im.cache_hits,
                          im.cache_misses)) {
    // Re-assert the registry entry so a cache hit alone (e.g. a loaded
    // file, or a second compile after ClearTunedBlocks in tests) restores
    // execution-time selection with zero re-measurement.
    cpukernels::RegisterTunedBlock(kind, m, n, k, cached.block,
                                   cached.layout);
    return cached;
  }
  if (candidates.empty()) {
    AbandonFlight(key);
    return Status::NotFound(StrCat("no CPU blocking candidates for ", key));
  }

  trace::TraceSink& sink = trace::TraceSink::Global();
  const double t0_us = sink.enabled() ? sink.NowUs() : 0.0;
  const auto wall0 = std::chrono::steady_clock::now();

  // Cross-shape transfer: the nearest already-tuned shape's winning block
  // joins the sweep (if the enumerator did not produce it already).  It is
  // ranked and measured like any other candidate — a bad prior costs one
  // measurement, never the selection.
  std::vector<cpukernels::BlockConfig> sweep = candidates;
  int seeded = 0;
  if (cost_.cpu_ranked_sweep) {
    if (auto near = cpukernels::FindTunedBlockNearShape(kind, m, n, k);
        near.has_value() && near->log2_distance > 0.0) {
      const bool already =
          std::any_of(sweep.begin(), sweep.end(),
                      [&](const cpukernels::BlockConfig& c) {
                        return c == near->block;
                      });
      if (!already) {
        sweep.push_back(near->block);
        seeded = 1;
        im.ranked_seeded.Increment();
      }
    }
  }

  // Learned pre-filter: rank the sweep with the online cost model and
  // measure only the most promising slice.  The heuristic candidate
  // (index 0) is always kept, so a confidently-wrong model can prune
  // tuning *time* but never regress below the untuned default.  An
  // unconfident model (nullopt) falls back to the full sweep.
  std::vector<size_t> picked(sweep.size());
  std::iota(picked.begin(), picked.end(), size_t{0});
  std::vector<std::vector<double>> feats;
  bool ranked = false;
  if (cost_.cpu_ranked_sweep) {
    const cpukernels::CpuCacheInfo cache = cpukernels::HostCacheInfo();
    const int threads = cpukernels::DefaultNumThreads();
    feats.reserve(sweep.size());
    for (const cpukernels::BlockConfig& c : sweep) {
      feats.push_back(FeaturizeCpuBlock(cache, kind, m, n, k, threads, c));
    }
    const size_t keep = std::max<size_t>(
        kCpuRankMinKeep, static_cast<size_t>(kCpuRankKeepFraction *
                                             static_cast<double>(sweep.size())));
    std::optional<std::vector<size_t>> top;
    {
      std::lock_guard<std::mutex> lock(rank_mu_);
      top = cpu_rank_.SelectTopK(feats, keep);
    }
    if (top.has_value()) {
      picked = std::move(*top);
      picked.push_back(0);  // heuristic default: always measured
      if (seeded) picked.push_back(sweep.size() - 1);  // transfer seed too
      // Measure in enumeration order so tie-breaks match the full sweep.
      std::sort(picked.begin(), picked.end());
      picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
      ranked = true;
      im.ranked_workloads.Increment();
      im.ranked_pruned.Increment(
          static_cast<int64_t>(sweep.size() - picked.size()));
    } else if (sweep.size() > keep) {
      // The model *could* have pruned this sweep but was unconfident.
      im.ranked_fallback.Increment();
    }
  }

  // Serial sweep in enumeration order (strict less keeps the earliest of
  // tied candidates): each launch may already own the whole process pool,
  // and overlapping candidates would corrupt each other's timings.
  CpuProfileResult best;
  best.us = std::numeric_limits<double>::infinity();
  std::vector<double> measured_us(picked.size(), 0.0);
  for (size_t pi = 0; pi < picked.size(); ++pi) {
    const cpukernels::BlockConfig& c = sweep[picked[pi]];
    const double us = measure(c);
    measured_us[pi] = us;
    ++best.candidates_tried;
    if (us < best.us) {
      best.us = us;
      best.block = c;
    }
  }
  best.candidates_enumerated = static_cast<int>(sweep.size());
  best.ranked = ranked;
  best.seeded = seeded;
  best.layout = layout;

  // Every measurement is a training row; refit once per sweep.  The model
  // learns from full and pruned sweeps alike, so early full sweeps are the
  // bootstrap corpus for later ranked ones.  Targets are normalized to the
  // sweep's best latency: within one sweep every shape feature is constant,
  // so training on absolute latency would spend the stumps explaining
  // shape-to-shape magnitude differences and predict near-flat scores
  // *within* a candidate set — exactly where ranking needs contrast.
  // Relative targets make the model predict blocking quality directly.
  if (cost_.cpu_ranked_sweep && best.us > 0.0 &&
      std::isfinite(best.us)) {
    std::lock_guard<std::mutex> lock(rank_mu_);
    for (size_t pi = 0; pi < picked.size(); ++pi) {
      cpu_rank_.AddMeasurement(std::move(feats[picked[pi]]),
                               measured_us[pi] / best.us);
    }
    cpu_rank_.Fit();
  }

  // CPU measurement consumes real time; the TuningClock absorbs it so
  // tuning-cost reports cover both the simulated GPU measurements and the
  // real CPU ones.  Wall == device: the sweep is serial by design.
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall0)
          .count();
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    clock_.ChargeMeasure(elapsed_s);
  }
  if (sink.enabled()) {
    sink.EmitSpan(trace::kPidCpuTune, sink.CurrentThreadLane(), key,
                  "cpu.tune", t0_us, sink.NowUs(),
                  StrCat("{\"candidates\":", picked.size(),
                         ",\"enumerated\":", sweep.size(),
                         ",\"ranked\":", ranked ? 1 : 0,
                         ",\"seeded\":", seeded,
                         ",\"best_us\":", best.us, "}"));
  }
  im.workloads.Increment();
  im.candidates.Increment(static_cast<int64_t>(picked.size()));
  im.best_us.Observe(best.us);

  cpukernels::RegisterTunedBlock(kind, m, n, k, best.block, layout);
  PublishResult(cpu_cache_, key, best);
  return best;
}

Result<CpuProfileResult> Profiler::ProfileCpuGemm(
    const CpuGemmWorkload& workload) {
  if (workload.m <= 0 || workload.n <= 0 || workload.k <= 0) {
    return Status::InvalidArgument(
        StrCat("invalid CPU GEMM workload ", workload.ToString()));
  }
  const int threads = cpukernels::DefaultNumThreads();
  const std::string key = CpuCacheKey("gemm", workload.ToString(), threads);
  const auto candidates = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), workload.m, workload.n, workload.k,
      threads);
  // Operand buffers are only materialized if the sweep actually measures.
  std::optional<CpuGemmMeasurer> measurer;
  return RunCpuSweep(
      key, cpukernels::TunedKind::kGemm, workload.m, workload.n, workload.k,
      Layout::kRowMajor, candidates,
      [&](const cpukernels::BlockConfig& block) {
        if (!measurer.has_value()) measurer.emplace(workload);
        return measurer->MeasureUs(block, &cpukernels::ProcessPool(),
                                   kCpuWarmupRuns, kCpuMeasureRuns);
      });
}

Result<CpuProfileResult> Profiler::ProfileCpuConv(
    const CpuConvWorkload& workload) {
  const cpukernels::ConvGemmShape shape = workload.GemmShape();
  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) {
    return Status::InvalidArgument(
        StrCat("invalid CPU conv workload ", workload.ToString()));
  }
  const int threads = cpukernels::DefaultNumThreads();
  // The implicit-GEMM dims lead the workload field so LoadCache can key
  // the tuned-block registry without re-deriving conv geometry.
  const std::string key = CpuCacheKey(
      "conv",
      StrCat(shape.m, "x", shape.n, "x", shape.k, "__",
             workload.ToString()),
      threads);
  const auto candidates = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), shape.m, shape.n, shape.k, threads);
  std::optional<CpuConvMeasurer> measurer;
  return RunCpuSweep(
      key, cpukernels::TunedKind::kConv, shape.m, shape.n, shape.k,
      workload.layout, candidates,
      [&](const cpukernels::BlockConfig& block) {
        if (!measurer.has_value()) measurer.emplace(workload);
        return measurer->MeasureUs(block, &cpukernels::ProcessPool(),
                                   kCpuWarmupRuns, kCpuMeasureRuns);
      });
}

template <typename Problem>
B2bProfileResult Profiler::ProfileChain(
    const std::vector<Problem>& problems,
    const std::vector<EpilogueSpec>& epilogues) {
  using Family = KernelFamily<Problem>;
  BOLT_CHECK(problems.size() == epilogues.size() && problems.size() >= 2);
  std::vector<std::string> stage_keys;
  for (size_t i = 0; i < problems.size(); ++i) {
    stage_keys.push_back(
        StrCat(problems[i].ToString(), "+", epilogues[i].ToString()));
  }
  const std::string key = StrCat("b2b", Family::kOp, "/",
                                 StrJoin(stage_keys, ","), "/", spec_.arch);
  B2bProfileResult result;
  ProfilerInstruments& im = ProfilerInstruments::Get();
  if (LookupOrBeginFlight(b2b_cache_, key, &result, im.cache_hits,
                          im.cache_misses)) {
    return result;
  }
  EnsureArchPrepared();
  result.fused_us = std::numeric_limits<double>::infinity();

  // Unfused baseline: best standalone (epilogue-fused) kernel per stage.
  for (size_t i = 0; i < problems.size(); ++i) {
    auto r = ProfileKernel(problems[i], epilogues[i]);
    if (!r.ok()) {
      // Infeasible -> not beneficial; publish so repeat queries are free.
      PublishResult(b2b_cache_, key, result);
      return result;
    }
    result.unfused_us += r.value().us;
  }

  // Stage configs: independently pick the best per-stage candidate under
  // the shared ThreadBlock_M / warp-count constraints by trying matching
  // warp counts.  Combos are independent, so they fan out across the pool;
  // clock charges happen afterwards in enumeration order.
  const std::vector<B2bCombo> combos = EnumerateB2bCombos();
  std::vector<std::vector<KernelConfig>> configs(combos.size());
  const SweepWinner best = Sweep(
      key, static_cast<int64_t>(combos.size()),
      [&](int64_t ci) -> std::optional<double> {
        const B2bCombo& combo = combos[ci];
        std::vector<typename Family::Stage> stages;
        for (size_t i = 0; i < problems.size(); ++i) {
          std::optional<KernelConfig> pick;
          double pick_us = std::numeric_limits<double>::infinity();
          for (const KernelConfig& c : EnumerateB2bStageCandidates(
                   spec_, Family::AsGemm(problems[i]), combo.tb_m,
                   combo.residence)) {
            if (c.warps_per_cta() != combo.warps) continue;
            const KernelConfig config = Family::StageConfig(problems[i], c);
            typename Family::Kernel k(problems[i], config, epilogues[i]);
            if (!k.CanImplement(spec_).ok()) continue;
            const double us = k.EstimateUs(spec_);
            if (us < pick_us) {
              pick_us = us;
              pick = config;
            }
          }
          if (!pick.has_value()) return std::nullopt;
          stages.push_back({problems[i], *pick, epilogues[i]});
        }
        auto kernel = Family::Chain::Create(stages, combo.residence, spec_);
        if (!kernel.ok()) return std::nullopt;
        for (const auto& s : stages) configs[ci].push_back(s.config);
        return kernel.value().EstimateUs(spec_);
      });
  if (best.index >= 0) {
    result.feasible = true;
    result.fused_us = best.us;
    result.residence = combos[best.index].residence;
    result.configs = configs[best.index];
  }
  result.beneficial = result.feasible && result.fused_us < result.unfused_us;
  PublishResult(b2b_cache_, key, result);
  return result;
}

B2bProfileResult Profiler::ProfileB2bGemm(
    const std::vector<GemmCoord>& problems,
    const std::vector<EpilogueSpec>& epilogues) {
  return ProfileChain(problems, epilogues);
}

B2bProfileResult Profiler::ProfileB2bConv(
    const std::vector<ConvProblem>& problems,
    const std::vector<EpilogueSpec>& epilogues) {
  return ProfileChain(problems, epilogues);
}

}  // namespace bolt
