// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "testing/diff_harness.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/fileio.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/ulp.h"

namespace bolt {
namespace difftest {

Tensor RandomTensor(TensorDesc desc, uint64_t seed) {
  Tensor t(std::move(desc));
  Rng rng(seed);
  rng.FillNormal(t.data(), 0.5f);
  t.Quantize();
  return t;
}

cpukernels::BlockConfig RandomBlock(Rng& rng, bool isa_axis) {
  const int mcs[] = {-4, 0, 1, 3, 4, 5, 8, 12, 32, 64, 200};
  const int kcs[] = {-2, 0, 1, 7, 8, 9, 33, 256};
  const int ncs[] = {-8, 0, 1, 7, 8, 9, 24, 100, 4096};
  cpukernels::BlockConfig c;
  c.mc = mcs[rng.Uniform(0, 10)];
  c.kc = kcs[rng.Uniform(0, 7)];
  c.nc = ncs[rng.Uniform(0, 8)];
  c.scheme = rng.Uniform(0, 1) == 0 ? cpukernels::ParallelScheme::kLoopLevel
                                    : cpukernels::ParallelScheme::kBatchLevel;
  if (isa_axis) {
    const cpukernels::CpuIsa isas[] = {cpukernels::CpuIsa::kAuto,
                                       cpukernels::CpuIsa::kScalar,
                                       cpukernels::CpuIsa::kAvx2,
                                       cpukernels::CpuIsa::kAvx512};
    c.isa = isas[rng.Uniform(0, 3)];
  }
  c.prefetch = rng.Uniform(0, 1) == 1;
  return c;
}

Layout RandomConvLayout(Rng& rng, int64_t c, int64_t oc) {
  switch (rng.Uniform(0, 2)) {
    case 0:
      return Layout::kNCHW;
    case 1:
      return Layout::kNHWC;
    default:
      return c % kNCHWcBlock == 0 && oc % kNCHWcBlock == 0 ? Layout::kNCHWc
                                                           : Layout::kNCHW;
  }
}

const std::vector<ActivationKind> kActivations = {
    ActivationKind::kIdentity,  ActivationKind::kRelu,
    ActivationKind::kGelu,      ActivationKind::kSigmoid,
    ActivationKind::kHardswish, ActivationKind::kSoftplus,
};

Tolerance ToleranceFor(cpukernels::CpuIsa resolved, DType dtype) {
  // Both SIMD tiers share one ULP budget: their packing and epilogue
  // paths are bit-identical data movement (pack_simd.cc is compiled
  // without FMA contraction), so the only rounding divergence from the
  // scalar tier is the micro-kernel FMA — identical in kind for AVX2 and
  // AVX-512, just a different vector width.
  Tolerance tol;
  if (resolved == cpukernels::CpuIsa::kAvx2 ||
      resolved == cpukernels::CpuIsa::kAvx512) {
    tol.max_ulps = dtype == DType::kFloat16 ? kSimdMaxUlpsFloat16
                                            : kSimdMaxUlpsFloat32;
    tol.abs_escape = kSimdUlpAbsEscape;
  }
  return tol;
}

namespace {

std::mutex g_stats_mu;
std::map<std::string, OpStats>& StatsMap() {
  static auto* m = new std::map<std::string, OpStats>();
  return *m;
}

void Record(const std::string& op, int64_t ulps, bool failed,
            const Tolerance& tol) {
  {
    std::lock_guard<std::mutex> lock(g_stats_mu);
    OpStats& s = StatsMap()[op];
    ++s.checks;
    if (failed) ++s.failures;
    if (ulps > s.max_ulps) s.max_ulps = ulps;
    if (tol.max_ulps > s.bound_ulps) s.bound_ulps = tol.max_ulps;
  }
  auto& reg = metrics::Registry::Global();
  reg.GetCounter(StrCat("cpu.diff.", op, ".checks")).Increment();
  if (failed) reg.GetCounter(StrCat("cpu.diff.", op, ".failures")).Increment();
  reg.GetHistogram(StrCat("cpu.diff.", op, ".ulp"))
      .Observe(static_cast<double>(ulps));
}

/// Registered at static-init time (AddGlobalTestEnvironment is legal
/// before InitGoogleTest); TearDown runs once after every test in the
/// binary, when the accounting is complete.
class DiffSummaryEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("BOLT_DIFF_SUMMARY");
    if (path == nullptr || *path == '\0') return;
    const Status s = MergeDiffSummary(path);
    if (!s.ok()) {
      ADD_FAILURE() << "BOLT_DIFF_SUMMARY write failed: " << s.message();
    }
  }
};

const int kSummaryEnvRegistered =
    (::testing::AddGlobalTestEnvironment(new DiffSummaryEnvironment()), 0);

}  // namespace

OpStats StatsFor(const std::string& op) {
  std::lock_guard<std::mutex> lock(g_stats_mu);
  return StatsMap()[op];
}

::testing::AssertionResult CheckDiff(const std::string& op,
                                     const Tensor& got, const Tensor& want,
                                     const Tolerance& tol) {
  (void)kSummaryEnvRegistered;
  // Always measure the ULP distance (with the tier's escape) so the
  // accounting reflects real drift even for exact-tier checks, where any
  // nonzero distance is already a failure.
  const int64_t ulps = got.MaxUlpDiff(want, tol.abs_escape);
  bool failed;
  std::string why;
  if (tol.exact()) {
    const float abs = got.MaxAbsDiff(want);
    failed = abs != 0.0f;
    if (failed) {
      why = StrCat("bit-exact tier violated for ", op, ": MaxAbsDiff=", abs,
                   " (", ulps, " ULPs)");
    }
  } else {
    failed = ulps > tol.max_ulps;
    if (failed) {
      why = StrCat("ULP bound violated for ", op, ": ", ulps, " > ",
                   tol.max_ulps, " (abs_escape=", tol.abs_escape, ")");
    }
  }
  Record(op, tol.exact() && !failed ? 0 : ulps, failed, tol);
  if (failed) return ::testing::AssertionFailure() << why;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult CheckModelDiff(const std::string& op,
                                          const Tensor& got,
                                          const Tensor& want) {
  (void)kSummaryEnvRegistered;
  const bool halfs = got.dtype() == DType::kFloat16;
  Tolerance tol;
  tol.max_ulps = halfs ? kModelMaxScaleUlpsFloat16 : kModelMaxScaleUlpsFloat32;
  float scale = 0.0f;
  for (float v : want.data()) scale = std::max(scale, std::abs(v));
  // One ULP at `scale` on the storage grid (subnormal spacing below the
  // smallest normal).
  const int mantissa_bits = halfs ? 10 : 23;
  const int min_exp = halfs ? -14 : -126;
  const int exp = scale > 0.0f ? std::max(std::ilogb(scale), min_exp)
                               : min_exp;
  const float ulp = std::ldexp(1.0f, exp - mantissa_bits);
  const float abs = got.MaxAbsDiff(want);
  // NaN or overflow saturates (and fails) instead of an undefined cast.
  const double ratio = std::isfinite(abs) ? std::ceil(abs / ulp) : 1e18;
  const int64_t ulps = static_cast<int64_t>(std::min(ratio, 1e18));
  const bool failed = ulps > tol.max_ulps;
  Record(op, ulps, failed, tol);
  if (failed) {
    return ::testing::AssertionFailure()
           << "whole-model bound violated for " << op << ": MaxAbsDiff="
           << abs << " is " << ulps << " ULPs of the output scale " << scale
           << " (bound " << tol.max_ulps << ")";
  }
  return ::testing::AssertionSuccess();
}

namespace {

std::map<std::string, OpStats> Snapshot() {
  std::lock_guard<std::mutex> lock(g_stats_mu);
  return StatsMap();
}

Status WriteSummary(const std::string& path,
                    const std::map<std::string, OpStats>& ops) {
  std::ostringstream out;
  out << "{\n  \"isa\": \""
      << cpukernels::CpuIsaName(cpukernels::DefaultCpuIsa())
      << "\",\n  \"ops\": {";
  bool first = true;
  for (const auto& [op, s] : ops) {
    out << (first ? "" : ",") << "\n    \"" << op << "\": {"
        << "\"checks\": " << s.checks << ", \"failures\": " << s.failures
        << ", \"max_ulps\": " << s.max_ulps
        << ", \"bound_ulps\": " << s.bound_ulps << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  return WriteFileAtomic(path, out.str());
}

/// Folds the per-op lines WriteSummary wrote at `path` into `ops`: checks
/// and failures add up, max_ulps and bound_ulps take the max.  A missing
/// file merges nothing.
void MergeSummaryFile(const std::string& path,
                      std::map<std::string, OpStats>* ops) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    char op[128];
    long long checks = 0, failures = 0, max_ulps = 0, bound_ulps = 0;
    if (std::sscanf(line.c_str(),
                    " \"%127[^\"]\": {\"checks\": %lld, \"failures\": %lld, "
                    "\"max_ulps\": %lld, \"bound_ulps\": %lld}",
                    op, &checks, &failures, &max_ulps, &bound_ulps) != 5) {
      continue;
    }
    OpStats& s = (*ops)[op];
    s.checks += checks;
    s.failures += failures;
    s.max_ulps = std::max<int64_t>(s.max_ulps, max_ulps);
    s.bound_ulps = std::max<int64_t>(s.bound_ulps, bound_ulps);
  }
}

}  // namespace

Status WriteDiffSummary(const std::string& path) {
  return WriteSummary(path, Snapshot());
}

Status MergeDiffSummary(const std::string& path) {
  // Serializes the read-merge-write against test binaries running
  // concurrently (ctest -j).
  const int lock_fd = ::open((path + ".lock").c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd < 0) return Status::InvalidArgument(StrCat("cannot lock ", path));
  ::flock(lock_fd, LOCK_EX);
  std::map<std::string, OpStats> ops = Snapshot();
  MergeSummaryFile(path, &ops);
  const Status st = WriteSummary(path, ops);
  ::flock(lock_fd, LOCK_UN);
  ::close(lock_fd);
  return st;
}

}  // namespace difftest
}  // namespace bolt
