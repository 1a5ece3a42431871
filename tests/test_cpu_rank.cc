// Tests for the learned CPU candidate ranking stack:
//
//  * BoostedStumps width contract: Predict on a feature vector whose width
//    differs from the training set returns the training mean instead of
//    reading out of bounds.
//  * FeaturizeCpuBlock: deterministic, fixed-width features.
//  * CpuRankModel confidence gates: untrained, too-few-rows, flat-spread,
//    and width-mismatch candidate sets all decline to rank (nullopt), and
//    a trained model ranks a separable candidate set correctly.
//  * Tuned-registry lookups: FindTunedBlockNearBatch counter exactness
//    (one request feeds exactly one of hit/near/miss — the double-count
//    regression), smallest-above-else-largest-below preference, and the
//    nearest-shape transfer query FindTunedBlockNearShape.
//  * Profiler ranked sweeps end to end: unconfident sweeps fall back to
//    the full candidate set, confident ones measure a strict subset while
//    still selecting a valid block, transfer seeds join the sweep, and
//    disabling cpu_ranked_sweep restores the exhaustive baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ansor/cost_model.h"
#include "common/metrics.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/tuned.h"
#include "profiler/cpu_rank.h"
#include "profiler/cpu_tune.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

using cpukernels::BlockConfig;
using cpukernels::TunedKind;
using cpukernels::kMR;
using cpukernels::kNR;

// ---------------------------------------------------------------------------
// BoostedStumps width contract.
// ---------------------------------------------------------------------------

TEST(BoostedStumpsWidthTest, MismatchedWidthReturnsTrainingMean) {
  ansor::BoostedStumps model(20);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 16; ++i) {
    xs.push_back({static_cast<double>(i), static_cast<double>(i % 3)});
    ys.push_back(static_cast<double>(i));
  }
  model.Fit(xs, ys);
  ASSERT_TRUE(model.trained());
  EXPECT_EQ(model.trained_dim(), 2);
  const double mean = 7.5;  // mean of 0..15
  // Too narrow, too wide, empty: all return the base prediction instead
  // of indexing past the feature vector.
  EXPECT_DOUBLE_EQ(model.Predict({1.0}), mean);
  EXPECT_DOUBLE_EQ(model.Predict({1.0, 2.0, 3.0}), mean);
  EXPECT_DOUBLE_EQ(model.Predict({}), mean);
  // The matching width actually uses the stumps.
  EXPECT_GT(model.Predict({15.0, 0.0}), model.Predict({0.0, 0.0}));
}

// ---------------------------------------------------------------------------
// Featurization.
// ---------------------------------------------------------------------------

TEST(FeaturizeCpuBlockTest, DeterministicFixedWidth) {
  const cpukernels::CpuCacheInfo cache = cpukernels::HostCacheInfo();
  const BlockConfig heuristic;
  const auto a = FeaturizeCpuBlock(cache, TunedKind::kGemm, 128, 64, 256, 4,
                                   heuristic);
  const auto b = FeaturizeCpuBlock(cache, TunedKind::kGemm, 128, 64, 256, 4,
                                   heuristic);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  for (double v : a) EXPECT_TRUE(std::isfinite(v));
  // Conv and gemm rows share the width (the kind is a feature), so one
  // model can train across both families.
  const auto c = FeaturizeCpuBlock(cache, TunedKind::kConv, 128, 64, 256, 4,
                                   heuristic);
  EXPECT_EQ(c.size(), a.size());
  EXPECT_NE(c, a);  // the kind feature differs
  // The blocking is a feature: a different candidate gets a distinct row.
  BlockConfig other = heuristic;
  other.kc *= 2;
  EXPECT_NE(FeaturizeCpuBlock(cache, TunedKind::kGemm, 128, 64, 256, 4,
                              other),
            a);
}

// ---------------------------------------------------------------------------
// CpuRankModel confidence gates and ranking.
// ---------------------------------------------------------------------------

std::vector<double> Row(double x) { return {x, 1.0}; }

TEST(CpuRankModelTest, UntrainedAndUnderfedModelsDecline) {
  CpuRankModel::Options opts;
  opts.min_rows = 8;
  CpuRankModel model(opts);
  const std::vector<std::vector<double>> cands = {Row(0), Row(1), Row(2)};
  EXPECT_FALSE(model.SelectTopK(cands, 2).has_value());  // untrained
  for (int i = 0; i < 4; ++i) {
    model.AddMeasurement(Row(i), std::exp(i));
  }
  model.Fit();
  EXPECT_TRUE(model.trained());
  EXPECT_FALSE(model.SelectTopK(cands, 2).has_value());  // rows < min_rows
}

TEST(CpuRankModelTest, RanksASeparableCandidateSet) {
  CpuRankModel::Options opts;
  opts.min_rows = 8;
  CpuRankModel model(opts);
  // Latency grows with feature 0 (us = e^x), so the score -log(us) = -x
  // ranks small x first.
  for (int i = 0; i < 32; ++i) {
    model.AddMeasurement(Row(i % 8), std::exp(i % 8));
  }
  model.Fit();
  const std::vector<std::vector<double>> cands = {Row(6), Row(1), Row(4),
                                                  Row(0), Row(7)};
  auto top = model.SelectTopK(cands, 2);
  ASSERT_TRUE(top.has_value());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0], 3u);  // x=0: fastest
  EXPECT_EQ((*top)[1], 1u);  // x=1: second
}

TEST(CpuRankModelTest, FlatSpreadAndWidthMismatchDecline) {
  CpuRankModel::Options opts;
  opts.min_rows = 8;
  CpuRankModel model(opts);
  // Constant latency: predictions are flat, so the spread gate trips.
  for (int i = 0; i < 16; ++i) {
    model.AddMeasurement(Row(i % 4), 10.0);
  }
  model.Fit();
  const std::vector<std::vector<double>> cands = {Row(0), Row(1), Row(2),
                                                  Row(3)};
  EXPECT_FALSE(model.SelectTopK(cands, 2).has_value());
  // Width-mismatched candidates (e.g. a stale model trained on an older
  // feature layout) must decline rather than mis-rank.
  CpuRankModel fresh(opts);
  for (int i = 0; i < 16; ++i) {
    fresh.AddMeasurement(Row(i % 8), std::exp(i % 8));
  }
  fresh.Fit();
  const std::vector<std::vector<double>> wide = {
      {0.0, 1.0, 2.0}, {1.0, 1.0, 2.0}, {2.0, 1.0, 2.0}};
  EXPECT_FALSE(fresh.SelectTopK(wide, 2).has_value());
  // Nothing to prune: keep >= candidates.
  const std::vector<std::vector<double>> two = {Row(0), Row(1)};
  EXPECT_FALSE(fresh.SelectTopK(two, 2).has_value());
}

TEST(CpuRankModelTest, RejectsBadMeasurementsAndCapsWindow) {
  CpuRankModel::Options opts;
  opts.max_rows = 4;
  CpuRankModel model(opts);
  model.AddMeasurement(Row(1), 0.0);    // non-positive
  model.AddMeasurement(Row(1), -3.0);   // negative
  model.AddMeasurement(Row(1), std::nan(""));  // non-finite
  EXPECT_EQ(model.rows(), 0);
  for (int i = 0; i < 10; ++i) {
    model.AddMeasurement(Row(i), 1.0 + i);
  }
  EXPECT_EQ(model.rows(), 4);  // drop-oldest window
}

// ---------------------------------------------------------------------------
// Tuned-registry lookups: counter exactness and neighbor preference.
// ---------------------------------------------------------------------------

struct LookupDeltas {
  int64_t hit0, miss0, near0;
  LookupDeltas() {
    metrics::Registry& reg = metrics::Registry::Global();
    hit0 = reg.GetCounter("cpu.tuned.lookup.hit").value();
    miss0 = reg.GetCounter("cpu.tuned.lookup.miss").value();
    near0 = reg.GetCounter("cpu.tuned.lookup.near").value();
  }
  int64_t hit() const {
    return metrics::Registry::Global()
               .GetCounter("cpu.tuned.lookup.hit")
               .value() -
           hit0;
  }
  int64_t miss() const {
    return metrics::Registry::Global()
               .GetCounter("cpu.tuned.lookup.miss")
               .value() -
           miss0;
  }
  int64_t near() const {
    return metrics::Registry::Global()
               .GetCounter("cpu.tuned.lookup.near")
               .value() -
           near0;
  }
};

TEST(NearBatchLookupTest, EachRequestFeedsExactlyOneCounter) {
  cpukernels::ClearTunedBlocks();
  const BlockConfig small = BlockConfig::Make(kMR, 8, kNR).value();
  const BlockConfig big = BlockConfig::Make(8 * kMR, 16, 2 * kNR).value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 2, 16, 32, small));
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 8, 16, 32, big));

  {
    // Exact hit: only the hit counter moves.  The regression this pins
    // down: the exact probe used to route through the counting lookup,
    // charging a miss alongside every near hit.
    LookupDeltas d;
    auto r = cpukernels::FindTunedBlockNearBatch(
        TunedKind::kGemm, 8, 16, 32, cpukernels::Backend::kFastCpu);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(*r == big);
    EXPECT_EQ(d.hit(), 1);
    EXPECT_EQ(d.miss(), 0);
    EXPECT_EQ(d.near(), 0);
  }
  {
    // Near hit: only the near counter moves — in particular, no miss.
    LookupDeltas d;
    auto r = cpukernels::FindTunedBlockNearBatch(
        TunedKind::kGemm, 4, 16, 32, cpukernels::Backend::kFastCpu);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(d.hit(), 0);
    EXPECT_EQ(d.miss(), 0);
    EXPECT_EQ(d.near(), 1);
  }
  {
    // Both lookups fail: exactly one miss.
    LookupDeltas d;
    EXPECT_FALSE(cpukernels::FindTunedBlockNearBatch(
                     TunedKind::kGemm, 4, 99, 32,
                     cpukernels::Backend::kFastCpu)
                     .has_value());
    EXPECT_EQ(d.hit(), 0);
    EXPECT_EQ(d.miss(), 1);
    EXPECT_EQ(d.near(), 0);
  }
  {
    // Reference backend: gated out before any counter.
    LookupDeltas d;
    EXPECT_FALSE(cpukernels::FindTunedBlockNearBatch(
                     TunedKind::kGemm, 8, 16, 32,
                     cpukernels::Backend::kReference)
                     .has_value());
    EXPECT_EQ(d.hit() + d.miss() + d.near(), 0);
  }
  cpukernels::ClearTunedBlocks();
}

TEST(NearBatchLookupTest, PrefersSmallestAboveOverLargestBelow) {
  cpukernels::ClearTunedBlocks();
  const BlockConfig below = BlockConfig::Make(kMR, 8, kNR).value();
  const BlockConfig above = BlockConfig::Make(8 * kMR, 16, 2 * kNR).value();
  const BlockConfig far_above =
      BlockConfig::Make(16 * kMR, 32, 4 * kNR).value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 2, 16, 32, below));
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 12, 16, 32, above));
  ASSERT_TRUE(cpukernels::RegisterTunedBlock(TunedKind::kGemm, 64, 16, 32,
                                             far_above));
  // m=4 sits between 2 and 12: the smallest tuned batch *above* wins (a
  // kernel tuned for a larger batch covers the partial one).
  auto r = cpukernels::FindTunedBlockNearBatch(
      TunedKind::kGemm, 4, 16, 32, cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r == above);
  // m=100 is above every tuned batch: the largest below is the fallback.
  r = cpukernels::FindTunedBlockNearBatch(TunedKind::kGemm, 100, 16, 32,
                                          cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r == far_above);
  cpukernels::ClearTunedBlocks();
}

TEST(NearShapeLookupTest, FindsNearestUnderLog2DistanceAcrossAllDims) {
  cpukernels::ClearTunedBlocks();
  EXPECT_FALSE(
      cpukernels::FindTunedBlockNearShape(TunedKind::kGemm, 8, 8, 8)
          .has_value());  // empty registry
  const BlockConfig a = BlockConfig::Make(kMR, 8, kNR).value();
  const BlockConfig b = BlockConfig::Make(8 * kMR, 16, 2 * kNR).value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 32, 32, 64, a));
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 512, 512, 512, b));
  // (40, 32, 64) is well within a doubling of the first entry on every
  // axis; unlike NearBatch, differing n/k no longer disqualify a neighbor.
  auto r = cpukernels::FindTunedBlockNearShape(TunedKind::kGemm, 40, 32, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->m, 32);
  EXPECT_EQ(r->n, 32);
  EXPECT_EQ(r->k, 64);
  EXPECT_TRUE(r->block == a);
  EXPECT_NEAR(r->log2_distance, std::log2(40.0 / 32.0), 1e-12);
  // Exact match reports distance 0 (callers skip seeding those).
  r = cpukernels::FindTunedBlockNearShape(TunedKind::kGemm, 512, 512, 512);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->log2_distance, 0.0);
  EXPECT_TRUE(r->block == b);
  // The kind partitions the space.
  EXPECT_FALSE(
      cpukernels::FindTunedBlockNearShape(TunedKind::kConv, 32, 32, 64)
          .has_value());
  // Degenerate queries decline.
  EXPECT_FALSE(
      cpukernels::FindTunedBlockNearShape(TunedKind::kGemm, 0, 8, 8)
          .has_value());
  cpukernels::ClearTunedBlocks();
}

TEST(NearShapeLookupTest, TiesBreakTowardSmallestRegisteredKey) {
  cpukernels::ClearTunedBlocks();
  const BlockConfig a = BlockConfig::Make(kMR, 8, kNR).value();
  const BlockConfig b = BlockConfig::Make(8 * kMR, 16, 2 * kNR).value();
  // 8 and 32 are both one doubling away from 16 on the m axis.
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 8, 64, 64, a));
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 32, 64, 64, b));
  auto r = cpukernels::FindTunedBlockNearShape(TunedKind::kGemm, 16, 64, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->m, 8);  // smallest key among equidistant shapes
  EXPECT_TRUE(r->block == a);
  cpukernels::ClearTunedBlocks();
}

// ---------------------------------------------------------------------------
// Profiler ranked sweeps end to end.
// ---------------------------------------------------------------------------

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

CpuGemmWorkload Gemm(int64_t m, int64_t n, int64_t k) {
  CpuGemmWorkload w;
  w.m = m;
  w.n = n;
  w.k = k;
  return w;
}

TEST(RankedSweepTest, UnconfidentModelFallsBackToFullSweep) {
  cpukernels::ClearTunedBlocks();
  metrics::Counter& fallback =
      metrics::Registry::Global().GetCounter("cpu.tune.ranked.fallback");
  metrics::Counter& ranked_wl =
      metrics::Registry::Global().GetCounter("cpu.tune.ranked.workloads");
  const int64_t fallback0 = fallback.value();
  const int64_t ranked0 = ranked_wl.value();
  Profiler prof(kT4);  // default min_rows = 32: cold model declines
  // Deep-K workload: the enumerator emits several kc/mc values on any
  // cache hierarchy, so the sweep is large enough that ranking *would*
  // prune if the model were confident.
  auto r = prof.ProfileCpuGemm(Gemm(96, 32, 600));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().ranked);
  EXPECT_EQ(r.value().seeded, 0);  // registry was empty
  EXPECT_EQ(r.value().candidates_tried, r.value().candidates_enumerated);
  const auto cands = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), 96, 32, 600,
      cpukernels::DefaultNumThreads());
  EXPECT_EQ(r.value().candidates_enumerated, static_cast<int>(cands.size()));
  EXPECT_EQ(fallback.value() - fallback0, 1);
  EXPECT_EQ(ranked_wl.value() - ranked0, 0);
  cpukernels::ClearTunedBlocks();
}

TEST(RankedSweepTest, ConfidentModelMeasuresAStrictSubset) {
  cpukernels::ClearTunedBlocks();
  ProfilerCostModel cost;
  cost.cpu_rank_min_rows = 4;   // confident after one bootstrap sweep
  cost.cpu_rank_min_spread = 0.0;
  Profiler prof(kT4, cost);
  // Bootstrap: the first sweep runs full and trains the model.  Deep-K
  // workloads keep the candidate sets large on any cache hierarchy.
  auto first = prof.ProfileCpuGemm(Gemm(64, 48, 600));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().ranked);
  ASSERT_GE(first.value().candidates_tried, cost.cpu_rank_min_rows);

  metrics::Counter& pruned =
      metrics::Registry::Global().GetCounter("cpu.tune.ranked.pruned");
  const int64_t pruned0 = pruned.value();
  auto second = prof.ProfileCpuGemm(Gemm(96, 32, 600));
  ASSERT_TRUE(second.ok());
  const CpuProfileResult& r = second.value();
  EXPECT_TRUE(r.ranked);
  EXPECT_LT(r.candidates_tried, r.candidates_enumerated);
  EXPECT_GE(r.candidates_tried, kCpuRankMinKeep);
  EXPECT_TRUE(r.block.Validate().ok());
  EXPECT_GT(r.us, 0.0);
  EXPECT_EQ(pruned.value() - pruned0,
            r.candidates_enumerated - r.candidates_tried);
  // The winner is live in the execution registry, like any full sweep.
  auto hit = cpukernels::FindTunedBlockForBackend(
      TunedKind::kGemm, 96, 32, 600, cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == r.block);
  // Provenance round-trips through the v3 cache record.
  std::ostringstream saved;
  ASSERT_TRUE(prof.SaveCache(saved).ok());
  cpukernels::ClearTunedBlocks();
  Profiler reload(kT4);
  std::istringstream in(saved.str());
  ASSERT_TRUE(reload.LoadCache(in).ok());
  auto warm = reload.ProfileCpuGemm(Gemm(96, 32, 600));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_TRUE(warm.value().ranked);
  EXPECT_EQ(warm.value().candidates_tried, r.candidates_tried);
  EXPECT_EQ(warm.value().candidates_enumerated, r.candidates_enumerated);
  cpukernels::ClearTunedBlocks();
}

TEST(RankedSweepTest, TransferSeedJoinsTheSweep) {
  cpukernels::ClearTunedBlocks();
  // Register a tuned block for a nearby shape that the enumerator will
  // not produce for (24, 16, 32): a deliberately tiny micro-tile block.
  const BlockConfig prior =
      BlockConfig::Make(kMR, 8, kNR, cpukernels::ParallelScheme::kLoopLevel)
          .value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 48, 16, 32, prior));
  metrics::Counter& seeded_counter =
      metrics::Registry::Global().GetCounter("cpu.tune.ranked.seeded");
  const int64_t seeded0 = seeded_counter.value();

  Profiler prof(kT4);
  auto r = prof.ProfileCpuGemm(Gemm(24, 16, 32));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().seeded, 1);
  EXPECT_EQ(seeded_counter.value() - seeded0, 1);
  const auto cands = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), 24, 16, 32,
      cpukernels::DefaultNumThreads());
  // The seed rides on top of the enumerated set; the cold model still
  // measures everything (no pruning without confidence).
  EXPECT_EQ(r.value().candidates_enumerated,
            static_cast<int>(cands.size()) + 1);
  EXPECT_EQ(r.value().candidates_tried, r.value().candidates_enumerated);
  cpukernels::ClearTunedBlocks();
}

TEST(RankedSweepTest, DisablingRankingRestoresTheExhaustiveBaseline) {
  cpukernels::ClearTunedBlocks();
  // Even with a transfer prior registered, the opt-out must reproduce the
  // historical exhaustive sweep: no seed, no ranking, full measurement.
  const BlockConfig prior = BlockConfig::Make(kMR, 8, kNR).value();
  ASSERT_TRUE(
      cpukernels::RegisterTunedBlock(TunedKind::kGemm, 48, 16, 32, prior));
  ProfilerCostModel cost;
  cost.cpu_ranked_sweep = false;
  Profiler prof(kT4, cost);
  auto r = prof.ProfileCpuGemm(Gemm(24, 16, 32));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ranked);
  EXPECT_EQ(r.value().seeded, 0);
  const auto cands = EnumerateCpuBlockCandidates(
      cpukernels::HostCacheInfo(), 24, 16, 32,
      cpukernels::DefaultNumThreads());
  EXPECT_EQ(r.value().candidates_tried, static_cast<int>(cands.size()));
  EXPECT_EQ(r.value().candidates_enumerated, static_cast<int>(cands.size()));
  cpukernels::ClearTunedBlocks();
}

}  // namespace
}  // namespace bolt
