// Tests for Bolt's light-weight profiler: heuristic candidate enumeration,
// best-config selection, tuning-cost accounting, caching, and the
// persistent-fusion profitability analysis.

#include <gtest/gtest.h>

#include "models/workloads.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

using cutlite::EpilogueSpec;
using cutlite::GemmCoord;
using cutlite::GemmKernel;
using cutlite::KernelConfig;

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

TEST(CandidatesTest, TensNotThousands) {
  // "Bolt produces tens of best parameter combinations" (Section 3.2.2).
  for (const auto& w : workloads::Fig1Gemms()) {
    auto cands = EnumerateGemmCandidates(kT4, w.coord);
    EXPECT_GE(cands.size(), 4u) << w.name;
    EXPECT_LE(cands.size(), 100u) << w.name;
  }
}

TEST(CandidatesTest, AllStructurallyValid) {
  for (const auto& c :
       EnumerateGemmCandidates(kT4, GemmCoord(1280, 3072, 768))) {
    EXPECT_TRUE(c.Validate(kT4).ok()) << c.Name();
  }
}

TEST(CandidatesTest, PrefersFourOrEightWarpsOnLargeProblems) {
  for (const auto& c :
       EnumerateGemmCandidates(kT4, GemmCoord(4096, 4096, 4096))) {
    EXPECT_TRUE(c.warps_per_cta() == 4 || c.warps_per_cta() == 8)
        << c.Name();
  }
}

TEST(CandidatesTest, SmallProblemsGetSmallThreadblocks) {
  // Guideline: small problems need small threadblocks to keep SMs busy.
  auto cands = EnumerateGemmCandidates(kT4, GemmCoord(256, 256, 256));
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_LE(c.threadblock.mn(), 128 * 64) << c.Name();
  }
}

TEST(CandidatesTest, AlignmentsDeriveFromProblem) {
  auto cands = EnumerateGemmCandidates(kT4, GemmCoord(1024, 1000, 46));
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_EQ(c.align_a, 2);  // K=46
    EXPECT_EQ(c.align_c, 8);  // N=1000
  }
}

TEST(CandidatesTest, ExhaustiveIsStrictlyLarger) {
  const GemmCoord p(1280, 3072, 768);
  EXPECT_GT(EnumerateGemmExhaustive(kT4, p).size(),
            3 * EnumerateGemmCandidates(kT4, p).size());
}

TEST(CandidatesTest, HeuristicWithinFewPercentOfExhaustive) {
  // The pruning ablation (DESIGN.md): heuristic candidates must contain a
  // config within 10% of the exhaustive optimum.
  for (const auto& w : workloads::Fig1Gemms()) {
    auto best_of = [&](const std::vector<KernelConfig>& cands) {
      double best = 1e30;
      for (const auto& c : cands) {
        GemmKernel k(w.coord, c, EpilogueSpec::Linear());
        if (!k.CanImplement(kT4).ok()) continue;
        best = std::min(best, k.EstimateUs(kT4));
      }
      return best;
    };
    const double heuristic = best_of(EnumerateGemmCandidates(kT4, w.coord));
    const double exhaustive =
        best_of(EnumerateGemmExhaustive(kT4, w.coord));
    EXPECT_LE(heuristic, exhaustive * 1.10) << w.name;
  }
}

TEST(ProfilerTest, PicksTheMinimumCandidate) {
  Profiler prof(kT4);
  const GemmCoord p(1280, 3072, 768);
  auto r = prof.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(r.ok());
  for (const auto& c : EnumerateGemmCandidates(kT4, p)) {
    GemmKernel k(p, c, EpilogueSpec::Linear());
    if (!k.CanImplement(kT4).ok()) continue;
    EXPECT_LE(r.value().us, k.EstimateUs(kT4) + 1e-9);
  }
}

TEST(ProfilerTest, CacheHitsAreFree) {
  Profiler prof(kT4);
  const GemmCoord p(1280, 768, 768);
  auto first = prof.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  const double seconds_after_first = prof.clock().seconds();
  auto second = prof.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_DOUBLE_EQ(prof.clock().seconds(), seconds_after_first);
  EXPECT_EQ(second.value().us, first.value().us);
}

TEST(ProfilerTest, ArchPregenChargedOnce) {
  Profiler prof(kT4);
  prof.ProfileGemm(GemmCoord(512, 512, 512), EpilogueSpec::Linear());
  const double after_one = prof.clock().compile_seconds();
  EXPECT_GE(after_one, kArchPregenSeconds);
  prof.ProfileGemm(GemmCoord(1024, 512, 512), EpilogueSpec::Linear());
  // No additional compile charge: sample programs are reused.
  EXPECT_DOUBLE_EQ(prof.clock().compile_seconds(), after_one);
}

TEST(ProfilerTest, TuningStaysUnderMinutesPerWorkload) {
  Profiler prof(kT4);
  for (const auto& w : workloads::Fig1Gemms()) {
    auto r = prof.ProfileGemm(w.coord, EpilogueSpec::Linear());
    ASSERT_TRUE(r.ok());
  }
  // Five workloads + one-time pregen: well under 5 minutes of simulated
  // tuning (the paper's whole-model budget is 20 minutes).
  EXPECT_LT(prof.clock().minutes(), 5.0);
}

TEST(ProfilerTest, ConvProfileRespectsChannelAlignment) {
  Profiler prof(kT4);
  cutlite::ConvProblem p = workloads::Table3Workloads()[0].problem;
  ASSERT_EQ(p.c % 8, 2 % 8 * 0 + p.c % 8);  // c=46, alignment 2
  auto r = prof.ProfileConv(p, EpilogueSpec::Linear());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().config.align_a, 2);
}

TEST(ProfilerTest, B2bGemmBeneficialOnPaperWorkloads) {
  Profiler prof(kT4);
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  for (const auto& w : workloads::Table1Workloads()) {
    auto r = prof.ProfileB2bGemm({w.gemm0, w.gemm1}, {relu, relu});
    EXPECT_TRUE(r.feasible) << w.gemm0.ToString();
    EXPECT_TRUE(r.beneficial) << w.gemm0.ToString();
    EXPECT_LT(r.fused_us, r.unfused_us) << w.gemm0.ToString();
    // Speedup in a plausible band around the paper's 1.24-1.46x.
    const double speedup = r.unfused_us / r.fused_us;
    EXPECT_GT(speedup, 1.05) << w.gemm0.ToString();
    EXPECT_LT(speedup, 3.0) << w.gemm0.ToString();
  }
}

TEST(ProfilerTest, B2bInfeasibleForWideLayers) {
  // Threadblock residence cannot hold when N is large (Section 5's
  // limitation: compute-bound wide layers should not be fused).
  Profiler prof(kT4);
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  auto r = prof.ProfileB2bGemm(
      {GemmCoord(1280, 3072, 768), GemmCoord(1280, 3072, 3072)},
      {relu, relu});
  EXPECT_FALSE(r.feasible);
}

TEST(ProfilerTest, B2bConvBeneficialOnAlignedPaperWorkloads) {
  Profiler prof(kT4);
  EpilogueSpec e = EpilogueSpec::WithActivation(ActivationKind::kRelu);
  for (const auto& w : workloads::Table2Workloads()) {
    if (w.conv0.c % 8 != 0) continue;  // unaligned rows go through padding
    auto r = prof.ProfileB2bConv({w.conv0, w.conv1}, {e, e});
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.beneficial);
  }
}

}  // namespace
}  // namespace bolt
