// Tests for the tuning-cache persistence format (save/load round-trip,
// malformed-record rejection, arch-header semantics) and for the parallel
// profiler: determinism against the serial baseline and the wall-clock /
// device-seconds accounting split.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bolt/engine.h"
#include "common/rng.h"
#include "cpukernels/backend.h"
#include "cpukernels/cpuinfo.h"
#include "cpukernels/tuned.h"
#include "models/workloads.h"
#include "models/zoo.h"
#include "profiler/profiler.h"

namespace bolt {
namespace {

using cutlite::EpilogueSpec;
using cutlite::GemmCoord;

const DeviceSpec kT4 = DeviceSpec::TeslaT4();

/// Profiles a randomized-but-valid workload set so the cache has a spread
/// of configs (different tile shapes, alignments, split-k).
void PopulateCache(Profiler& prof, uint64_t seed, int workloads) {
  Rng rng(seed);
  for (int i = 0; i < workloads; ++i) {
    const GemmCoord p(64 * rng.Uniform(1, 40), 64 * rng.Uniform(1, 40),
                      2 * rng.Uniform(8, 512));
    auto r = prof.ProfileGemm(p, EpilogueSpec::Linear());
    ASSERT_TRUE(r.ok()) << p.ToString();
  }
}

TEST(TuningCacheTest, SaveLoadRoundTripIsIdentical) {
  // Property: save -> load -> save must reproduce the byte-identical
  // cache for any profiled workload set.
  for (uint64_t seed : {7u, 21u, 99u}) {
    Profiler session1(kT4);
    PopulateCache(session1, seed, 12);
    std::ostringstream saved;
    ASSERT_TRUE(session1.SaveCache(saved).ok());

    Profiler session2(kT4);
    std::istringstream in(saved.str());
    ASSERT_TRUE(session2.LoadCache(in).ok());
    EXPECT_EQ(session2.cache_size(), session1.cache_size());
    std::ostringstream resaved;
    ASSERT_TRUE(session2.SaveCache(resaved).ok());
    EXPECT_EQ(saved.str(), resaved.str()) << "seed " << seed;
  }
}

TEST(TuningCacheTest, LoadedEntriesAreExactCacheHits) {
  Profiler session1(kT4);
  const GemmCoord p(1280, 3072, 768);
  auto first = session1.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(first.ok());
  std::ostringstream saved;
  ASSERT_TRUE(session1.SaveCache(saved).ok());

  Profiler session2(kT4);
  std::istringstream in(saved.str());
  ASSERT_TRUE(session2.LoadCache(in).ok());
  auto warm = session2.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_TRUE(warm.value().config == first.value().config);
  EXPECT_DOUBLE_EQ(warm.value().us, first.value().us);
}

// ---------------------------------------------------------------------------
// Malformed-record rejection.

std::string ValidRecord() {
  return "gemm/64x64x64/linear/sm75|"
         "128 128 32 64 64 32 16 8 8 2 4 8 8 8 1|12.5|17\n";
}

TEST(TuningCacheTest, AcceptsTheValidRecord) {
  Profiler prof(kT4);
  std::istringstream in(ValidRecord());
  ASSERT_TRUE(prof.LoadCache(in).ok());
  EXPECT_EQ(prof.cache_size(), 1);
}

TEST(TuningCacheTest, RejectsInvalidSwizzleWidths) {
  // Widths outside {1,2,4,8} would cast to an invalid Swizzle enum and
  // crash SwizzleName downstream; the load must reject them.
  for (int width : {0, 3, 5, 16, -1}) {
    Profiler prof(kT4);
    std::istringstream in(StrCat(
        "gemm/64x64x64/linear/sm75|128 128 32 64 64 32 16 8 8 2 ", width,
        " 8 8 8 1|12.5|17\n"));
    Status st = prof.LoadCache(in);
    EXPECT_FALSE(st.ok()) << "width " << width;
    EXPECT_TRUE(Contains(st.message(), "swizzle")) << st.message();
    EXPECT_EQ(prof.cache_size(), 0);
  }
}

TEST(TuningCacheTest, RejectsNumericTrailingGarbage) {
  // atof/atoi-style parsing silently accepted "12.5abc"; strict parsing
  // must reject the line instead.
  const std::string config = "128 128 32 64 64 32 16 8 8 2 4 8 8 8 1";
  const struct {
    std::string latency, count;
  } cases[] = {
      {"12.5abc", "17"}, {"nope", "17"}, {"", "17"},
      {"12.5", "17abc"}, {"12.5", "0x11"}, {"12.5", ""},
  };
  for (const auto& c : cases) {
    Profiler prof(kT4);
    std::istringstream in(StrCat("gemm/a/linear/sm75|", config, "|",
                                 c.latency, "|", c.count, "\n"));
    EXPECT_FALSE(prof.LoadCache(in).ok())
        << "latency=" << c.latency << " count=" << c.count;
    EXPECT_EQ(prof.cache_size(), 0);
  }
}

TEST(TuningCacheTest, RejectsNonPositiveLatencyAndCount) {
  const std::string config = "128 128 32 64 64 32 16 8 8 2 4 8 8 8 1";
  const struct {
    std::string latency, count;
  } cases[] = {{"0", "17"}, {"-3.5", "17"}, {"12.5", "0"}, {"12.5", "-2"}};
  for (const auto& c : cases) {
    Profiler prof(kT4);
    std::istringstream in(StrCat("gemm/a/linear/sm75|", config, "|",
                                 c.latency, "|", c.count, "\n"));
    EXPECT_FALSE(prof.LoadCache(in).ok())
        << "latency=" << c.latency << " count=" << c.count;
  }
}

TEST(TuningCacheTest, RejectsMalformedConfigs) {
  const char* bad_configs[] = {
      "128 128 32",                                 // too few fields
      "128 128 32 64 64 32 16 8 8 2 4 8 8 8 x",     // non-numeric
      "128 128 32 64 64 32 16 8 8 2 4 8 8 8 1 junk",  // trailing garbage
  };
  for (const char* config : bad_configs) {
    Profiler prof(kT4);
    std::istringstream in(
        StrCat("gemm/a/linear/sm75|", config, "|12.5|17\n"));
    EXPECT_FALSE(prof.LoadCache(in).ok()) << config;
  }
}

TEST(TuningCacheTest, RejectsWrongFieldCount) {
  Profiler prof(kT4);
  std::istringstream in("gemm/a/linear/sm75|1 2 3|12.5\n");
  EXPECT_FALSE(prof.LoadCache(in).ok());
}

// ---------------------------------------------------------------------------
// CPU (`cpu/` namespace) records: golden schema, mixed round-trip with GPU
// records, and per-line rejection — a corrupt, wrong-version, or
// foreign-arch cpu line is dropped individually without failing the file,
// while GPU records keep their strict whole-file semantics.

std::string ValidCpuRecord() {
  // Provenance field (v3): 30 candidates enumerated, the ranked
  // pre-filter measured 7 of them, no transfer seed.  v4 appended the
  // prefetch flag to the block payload and admits isa 0..3; v5 appended
  // the activation layout (gemm records carry kRowMajor = 2).
  return StrCat("cpu/v5/gemm/24x16x32/t", cpukernels::DefaultNumThreads(),
                "/", cpukernels::CpuArchToken(),
                "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n");
}

TEST(CpuTuningCacheTest, MixedGpuAndCpuRoundTripIsIdentical) {
  cpukernels::ClearTunedBlocks();
  Profiler session1(kT4);
  PopulateCache(session1, 7, 6);
  CpuGemmWorkload w;
  w.m = 24;
  w.n = 16;
  w.k = 32;
  ASSERT_TRUE(session1.ProfileCpuGemm(w).ok());
  ASSERT_GT(session1.cache_size(), 0);
  ASSERT_EQ(session1.cpu_cache_size(), 1);
  std::ostringstream saved;
  ASSERT_TRUE(session1.SaveCache(saved).ok());

  Profiler session2(kT4);
  std::istringstream in(saved.str());
  ASSERT_TRUE(session2.LoadCache(in).ok());
  EXPECT_EQ(session2.cache_size(), session1.cache_size());
  EXPECT_EQ(session2.cpu_cache_size(), session1.cpu_cache_size());
  std::ostringstream resaved;
  ASSERT_TRUE(session2.SaveCache(resaved).ok());
  EXPECT_EQ(saved.str(), resaved.str());
  cpukernels::ClearTunedBlocks();
}

TEST(CpuTuningCacheTest, AcceptsTheGoldenCpuRecord) {
  cpukernels::ClearTunedBlocks();
  Profiler prof(kT4);
  std::istringstream in(ValidCpuRecord());
  ASSERT_TRUE(prof.LoadCache(in).ok());
  EXPECT_EQ(prof.cpu_cache_size(), 1);
  EXPECT_EQ(prof.cache_size(), 0);
  // Loading activates the execution registry for this thread config.
  auto hit = cpukernels::FindTunedBlockForBackend(
      cpukernels::TunedKind::kGemm, 24, 16, 32,
      cpukernels::Backend::kFastCpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mc, 64);
  EXPECT_EQ(hit->kc, 256);
  EXPECT_EQ(hit->nc, 4096);
  cpukernels::ClearTunedBlocks();
}

TEST(CpuTuningCacheTest, BadCpuLinesAreDroppedIndividually) {
  // One valid GPU record, one valid cpu record, and a pile of bad cpu
  // lines: the load must succeed and keep exactly the two valid records.
  const std::string arch = cpukernels::CpuArchToken();
  const std::string threads =
      StrCat("t", cpukernels::DefaultNumThreads());
  const std::string bad_lines[] = {
      // superseded versions are retired rather than reinterpreted: v1
      // carried no ISA field, v2 no ranked-sweep provenance, v3 no
      // prefetch flag (and its isa range stopped at AVX2), v4 no
      // activation layout
      StrCat("cpu/v1/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0|12.5|7\n"),
      StrCat("cpu/v2/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0|12.5|7\n"),
      StrCat("cpu/v3/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0|12.5|7|30 1 0\n"),
      StrCat("cpu/v4/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0|12.5|7|30 1 0\n"),
      // unknown future version
      StrCat("cpu/v6/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      // foreign arch token
      StrCat("cpu/v5/gemm/24x16x32/", threads,
             "/cpu4x8-l1_1-l2_2-l3_3-scalar|64 256 4096 0 0 0 2|12.5|7|30 1 "
             "0\n"),
      // unknown op
      StrCat("cpu/v5/b2b/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      // malformed workload dims
      StrCat("cpu/v5/gemm/24x16/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/0x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      // malformed thread field
      StrCat("cpu/v5/gemm/24x16x32/x4/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      // invalid blockings: mc not a multiple of kMR, nc not of kNR,
      // kc < 8, unknown scheme, out-of-range isa, non-flag prefetch
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|3 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 12 0 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 4 4096 0 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 2 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 4 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 -1 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 2 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 -1 2|12.5|7|30 1 0\n"),
      // invalid layouts: a gemm record must carry kRowMajor (2) — an
      // activation layout, kColMajor, kAny, or an out-of-enum value is
      // rejected; a conv record admits only NCHW (0), NHWC (1), NCHWc (5)
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 0|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 1|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 5|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 99|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/conv/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/conv/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 3|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/conv/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 4|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/conv/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 -1|12.5|7|30 1 0\n"),
      // missing layout field (a v4-shaped payload under the v5 key)
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0|12.5|7|30 1 0\n"),
      // trailing garbage / wrong field counts / bad numerics
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2 junk|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2 2|12.5|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|0|7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|-7|30 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5abc|7|30 1 0\n"),
      // malformed provenance: tried exceeding enumerated, non-flag
      // ranked/seeded, missing or garbage-laden fields
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|6 1 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 2 0\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 2\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0 junk\n"),
      StrCat("cpu/v5/gemm/24x16x32/", threads, "/", arch,
             "|64 256 4096 0 0 0 2|12.5|7|30 1 0|extra\n"),
      "cpu/v5/gemm\n",
  };
  for (const std::string& bad : bad_lines) {
    cpukernels::ClearTunedBlocks();
    Profiler prof(kT4);
    std::istringstream in(StrCat(ValidRecord(), bad, ValidCpuRecord()));
    ASSERT_TRUE(prof.LoadCache(in).ok()) << bad;
    EXPECT_EQ(prof.cache_size(), 1) << bad;
    EXPECT_EQ(prof.cpu_cache_size(), 1) << bad;
    // The bad line must not have leaked into the registry either.
    EXPECT_EQ(cpukernels::TunedBlockCount(), 1) << bad;
  }
  cpukernels::ClearTunedBlocks();
}

TEST(CpuTuningCacheTest, ForeignThreadCountLoadsButStaysDormant) {
  // Records measured under another deployment's thread count round-trip
  // through the cache but must not activate execution-time selection.
  cpukernels::ClearTunedBlocks();
  const std::string foreign = StrCat(
      "cpu/v5/gemm/24x16x32/t", cpukernels::DefaultNumThreads() + 1, "/",
      cpukernels::CpuArchToken(), "|64 256 4096 0 0 0 2|12.5|7|30 1 0\n");
  Profiler prof(kT4);
  std::istringstream in(foreign);
  ASSERT_TRUE(prof.LoadCache(in).ok());
  EXPECT_EQ(prof.cpu_cache_size(), 1);
  EXPECT_EQ(cpukernels::TunedBlockCount(), 0);
  std::ostringstream out;
  ASSERT_TRUE(prof.SaveCache(out).ok());
  EXPECT_TRUE(Contains(out.str(), foreign));  // round-trips verbatim
}

TEST(CpuTuningCacheTest, CpuLinesDoNotRelaxGpuStrictness) {
  // A valid cpu line must not rescue a malformed GPU record: GPU parsing
  // keeps its whole-file error semantics.
  Profiler prof(kT4);
  std::istringstream in(
      StrCat(ValidCpuRecord(), "gemm/a/linear/sm75|1 2 3|12.5\n"));
  EXPECT_FALSE(prof.LoadCache(in).ok());
  cpukernels::ClearTunedBlocks();
}

TEST(CpuTuningCacheTest, RejectedFileLeavesNothingBehind) {
  // A malformed GPU record rejects the whole file, so nothing of it may
  // stay loaded: not the records before it, not its cpu/ records or their
  // tuned-block registrations, and not its arch header's pregen skip.
  cpukernels::ClearTunedBlocks();
  Profiler prof(kT4);
  std::istringstream in(StrCat("# bolt tuning cache v1 arch=sm75\n",
                               ValidRecord(), ValidCpuRecord(),
                               "gemm/b/linear/sm75|1 2 3|12.5\n"));
  EXPECT_EQ(prof.LoadCache(in).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(prof.cache_size(), 0);
  EXPECT_EQ(prof.cpu_cache_size(), 0);
  EXPECT_EQ(cpukernels::TunedBlockCount(), 0);
  ASSERT_TRUE(
      prof.ProfileGemm(GemmCoord(512, 512, 512), EpilogueSpec::Linear()).ok());
  EXPECT_GE(prof.clock().compile_seconds(), kArchPregenSeconds);
  cpukernels::ClearTunedBlocks();
}

// ---------------------------------------------------------------------------
// Arch-header semantics: the one-time sample-program pre-generation charge
// is skipped only when the header names *exactly* this architecture.

double CompileSecondsAfterOneProfile(const std::string& header) {
  Profiler prof(kT4);  // arch "sm75"
  std::istringstream in(header + "\n");
  EXPECT_TRUE(prof.LoadCache(in).ok());
  auto r = prof.ProfileGemm(GemmCoord(512, 512, 512),
                            EpilogueSpec::Linear());
  EXPECT_TRUE(r.ok());
  return prof.clock().compile_seconds();
}

TEST(TuningCacheTest, ExactArchHeaderSkipsPregen) {
  EXPECT_DOUBLE_EQ(
      CompileSecondsAfterOneProfile("# bolt tuning cache v1 arch=sm75"),
      0.0);
}

TEST(TuningCacheTest, SupersetArchTokenDoesNotSkipPregen) {
  // "arch=sm75x" contains the substring "arch=sm75" but is a different
  // architecture; its sample programs are useless here.
  EXPECT_GE(CompileSecondsAfterOneProfile("# bolt tuning cache v1 arch=sm75x"),
            kArchPregenSeconds);
  EXPECT_GE(CompileSecondsAfterOneProfile("# bolt tuning cache v1 arch=sm7"),
            kArchPregenSeconds);
  EXPECT_GE(CompileSecondsAfterOneProfile("# arch=sm80"),
            kArchPregenSeconds);
}

// ---------------------------------------------------------------------------
// Atomic cache persistence (SaveCacheFile): a crash mid-save or a
// concurrent reader must never observe a torn cache file — the strict
// LoadCache grammar would reject it and silently drop the whole cache.

TEST(AtomicCacheFileTest, SaveLoadFileRoundTrip) {
  const std::string path = testing::TempDir() + "bolt_cache_roundtrip.log";
  Profiler session1(kT4);
  PopulateCache(session1, 5, 8);
  ASSERT_TRUE(session1.SaveCacheFile(path).ok());

  Profiler session2(kT4);
  ASSERT_TRUE(session2.LoadCacheFile(path).ok());
  EXPECT_EQ(session2.cache_size(), session1.cache_size());
  std::ostringstream a, b;
  ASSERT_TRUE(session1.SaveCache(a).ok());
  ASSERT_TRUE(session2.SaveCache(b).ok());
  EXPECT_EQ(a.str(), b.str());
  std::remove(path.c_str());
}

TEST(AtomicCacheFileTest, TornTempFileNeverReplacesValidCache) {
  // Simulated crash: a partially-written temp file sits next to the real
  // cache, as if the process died mid-SaveCacheFile before the rename.
  // The destination itself must still load fully valid, and the torn temp
  // must be rejected rather than silently merged.
  const std::string path = testing::TempDir() + "bolt_cache_torn.log";
  const std::string torn_path = path + ".tmp.crashed";
  Profiler session1(kT4);
  PopulateCache(session1, 11, 6);
  ASSERT_TRUE(session1.SaveCacheFile(path).ok());
  {
    std::ofstream torn(torn_path);  // half a record, no trailing newline
    torn << "# bolt tuning cache v1 arch=sm75\ngemm/64x64x64/lin";
  }

  Profiler session2(kT4);
  ASSERT_TRUE(session2.LoadCacheFile(path).ok());
  EXPECT_EQ(session2.cache_size(), session1.cache_size());
  Profiler session3(kT4);
  EXPECT_FALSE(session3.LoadCacheFile(torn_path).ok());
  std::remove(path.c_str());
  std::remove(torn_path.c_str());
}

TEST(AtomicCacheFileTest, FailedSaveLeavesDestinationUntouched) {
  // Destination is a directory: the final rename must fail, the status
  // must report it, the destination must be untouched, and no temp file
  // may be left behind.
  const std::string path = testing::TempDir() + "bolt_cache_destdir";
  std::filesystem::create_directory(path);
  Profiler session(kT4);
  PopulateCache(session, 3, 2);
  EXPECT_FALSE(session.SaveCacheFile(path).ok());
  EXPECT_TRUE(std::filesystem::is_directory(path));
  int leftovers = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(testing::TempDir())) {
    if (e.path().filename().string().rfind("bolt_cache_destdir.tmp", 0) ==
        0) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0);
  std::filesystem::remove(path);
}

TEST(AtomicCacheFileTest, ConcurrentReadersNeverSeeATornFile) {
  // A reader loading while a writer alternates between two cache
  // generations must always see one complete generation — never a parse
  // error, never a record count that matches neither.
  const std::string path = testing::TempDir() + "bolt_cache_concurrent.log";
  Profiler small(kT4);
  PopulateCache(small, 17, 2);
  Profiler big(kT4);
  PopulateCache(big, 23, 10);
  const int small_n = small.cache_size();
  const int big_n = big.cache_size();
  ASSERT_TRUE(small.SaveCacheFile(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      Profiler r(kT4);
      if (!r.LoadCacheFile(path).ok()) {
        torn.fetch_add(1);
        continue;
      }
      const int n = r.cache_size();
      if (n != small_n && n != big_n) torn.fetch_add(1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(((i % 2 == 0) ? big : small).SaveCacheFile(path).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Device-seconds attribution: cache hits are free, failed workloads are
// not double-charged, and a shared profiler charges each compile only for
// the work it added.

TEST(DeviceSecondsTest, CacheHitChargesZeroDeviceSeconds) {
  Profiler prof(kT4);
  const GemmCoord p(1280, 3072, 768);
  ASSERT_TRUE(prof.ProfileGemm(p, EpilogueSpec::Linear()).ok());
  const double device_before = prof.clock().device_seconds();
  const double wall_before = prof.clock().seconds();
  auto hit = prof.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_DOUBLE_EQ(prof.clock().device_seconds(), device_before);
  EXPECT_DOUBLE_EQ(prof.clock().seconds(), wall_before);
}

TEST(DeviceSecondsTest, InfeasibleWorkloadIsNotDoubleCharged) {
  // No candidate fits a device with zero shared memory.  The first attempt
  // pays the one-time pregen; the deferred-error path (BuildModule
  // re-encountering a workload PreProfile already failed) must charge
  // nothing further.
  DeviceSpec tiny = kT4;
  tiny.max_smem_per_cta = 0;
  Profiler prof(tiny);
  const GemmCoord p(64, 64, 64);
  EXPECT_FALSE(prof.ProfileGemm(p, EpilogueSpec::Linear()).ok());
  const double after_first = prof.clock().device_seconds();
  EXPECT_FALSE(prof.ProfileGemm(p, EpilogueSpec::Linear()).ok());
  EXPECT_DOUBLE_EQ(prof.clock().device_seconds(), after_first);
}

TEST(DeviceSecondsTest, SharedProfilerSecondCompileChargesNothing) {
  models::RepVggOptions mopts;
  mopts.batch = 8;
  mopts.image_size = 32;
  mopts.num_classes = 10;
  auto a0 = models::BuildRepVgg(models::RepVggVariant::kA0, mopts);
  ASSERT_TRUE(a0.ok());

  ProfilerCostModel pc;
  pc.num_threads = 4;
  Profiler shared(kT4, pc);
  CompileOptions opts;
  opts.profiler_cost.num_threads = 4;
  opts.shared_profiler = &shared;
  auto first = Engine::Compile(*a0, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->tuning_report().device_seconds, 0.0);

  auto second = Engine::Compile(*a0, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->tuning_report().device_seconds, 0.0);
  EXPECT_DOUBLE_EQ(second->tuning_report().seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Parallel profiling determinism: a parallel profiler must select
// bit-identical configs and latencies to the serial baseline.

ProfilerCostModel ParallelCost(int threads) {
  ProfilerCostModel cost;
  cost.num_threads = threads;
  return cost;
}

TEST(ParallelProfilerTest, GemmMatchesSerialBitExactly) {
  Profiler serial(kT4);
  Profiler parallel(kT4, ParallelCost(8));
  for (const auto& w : workloads::Fig1Gemms()) {
    auto s = serial.ProfileGemm(w.coord, EpilogueSpec::Linear());
    auto p = parallel.ProfileGemm(w.coord, EpilogueSpec::Linear());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(s.value().config == p.value().config) << w.name;
    EXPECT_EQ(s.value().us, p.value().us) << w.name;  // bit-identical
    EXPECT_EQ(s.value().candidates_tried, p.value().candidates_tried)
        << w.name;
  }
}

TEST(ParallelProfilerTest, ConvMatchesSerialBitExactly) {
  Profiler serial(kT4);
  Profiler parallel(kT4, ParallelCost(8));
  for (const auto& w : workloads::Table3Workloads()) {
    auto s = serial.ProfileConv(w.problem, EpilogueSpec::Linear());
    auto p = parallel.ProfileConv(w.problem, EpilogueSpec::Linear());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(s.value().config == p.value().config);
    EXPECT_EQ(s.value().us, p.value().us);
  }
}

TEST(ParallelProfilerTest, B2bMatchesSerialBitExactly) {
  Profiler serial(kT4);
  Profiler parallel(kT4, ParallelCost(8));
  EpilogueSpec relu =
      EpilogueSpec::WithActivation(ActivationKind::kRelu, false);
  for (const auto& w : workloads::Table1Workloads()) {
    auto s = serial.ProfileB2bGemm({w.gemm0, w.gemm1}, {relu, relu});
    auto p = parallel.ProfileB2bGemm({w.gemm0, w.gemm1}, {relu, relu});
    ASSERT_EQ(s.feasible, p.feasible);
    EXPECT_EQ(s.fused_us, p.fused_us);
    EXPECT_EQ(s.unfused_us, p.unfused_us);
    EXPECT_EQ(s.residence, p.residence);
    ASSERT_EQ(s.configs.size(), p.configs.size());
    for (size_t i = 0; i < s.configs.size(); ++i) {
      EXPECT_TRUE(s.configs[i] == p.configs[i]);
    }
  }
}

TEST(ParallelProfilerTest, B2bConvMatchesSerialBitExactly) {
  // The aligned Table 2 chains, plus a 2x2 filter over 4 channels: for
  // 3x3 and 1x1 filters the implicit-GEMM alignments equal the channel
  // alignments, so only the last chain tells them apart.
  std::vector<std::vector<cutlite::ConvProblem>> chains;
  for (const auto& w : workloads::Table2Workloads()) {
    if (w.conv0.c % 8 != 0) continue;  // unaligned rows go through padding
    chains.push_back({w.conv0, w.conv1});
  }
  cutlite::ConvProblem narrow;
  narrow.n = 8;
  narrow.h = narrow.w = 16;
  narrow.c = 4;
  narrow.k = 16;
  narrow.r = narrow.s = 2;
  cutlite::ConvProblem pointwise = narrow;
  pointwise.h = narrow.out_h();
  pointwise.w = narrow.out_w();
  pointwise.c = 16;
  pointwise.r = pointwise.s = 1;
  chains.push_back({narrow, pointwise});

  Profiler serial(kT4);
  Profiler parallel(kT4, ParallelCost(8));
  const EpilogueSpec e = EpilogueSpec::WithActivation(ActivationKind::kRelu);
  for (const auto& chain : chains) {
    auto s = serial.ProfileB2bConv(chain, {e, e});
    auto p = parallel.ProfileB2bConv(chain, {e, e});
    ASSERT_TRUE(s.feasible) << chain[0].ToString();
    ASSERT_EQ(s.feasible, p.feasible);
    EXPECT_EQ(s.fused_us, p.fused_us);
    EXPECT_EQ(s.unfused_us, p.unfused_us);
    EXPECT_EQ(s.residence, p.residence);
    ASSERT_EQ(s.configs.size(), chain.size());
    ASSERT_EQ(p.configs.size(), chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_TRUE(s.configs[i] == p.configs[i]);
      // Stage configs carry the conv alignments, derived from the channel
      // counts, not those of the implicit-GEMM view they were enumerated
      // over.
      EXPECT_EQ(s.configs[i].align_a, MaxAlignment(chain[i].c));
      EXPECT_EQ(s.configs[i].align_b, MaxAlignment(chain[i].c));
      EXPECT_EQ(s.configs[i].align_c, MaxAlignment(chain[i].k));
    }
  }
}

TEST(ParallelProfilerTest, WallClockIsCriticalPathDeviceIsSum) {
  Profiler serial(kT4);
  Profiler parallel(kT4, ParallelCost(8));
  for (const auto& w : workloads::Fig1Gemms()) {
    ASSERT_TRUE(serial.ProfileGemm(w.coord, EpilogueSpec::Linear()).ok());
    ASSERT_TRUE(parallel.ProfileGemm(w.coord, EpilogueSpec::Linear()).ok());
  }
  // Device seconds: the same work was performed, parallel or not.
  EXPECT_NEAR(parallel.clock().device_seconds(),
              serial.clock().device_seconds(),
              1e-9 * serial.clock().device_seconds());
  EXPECT_DOUBLE_EQ(serial.clock().device_seconds(),
                   serial.clock().seconds());
  // Wall seconds: the critical path across 8 workers is far shorter, but
  // can never beat perfect scaling.
  EXPECT_LT(parallel.clock().seconds(), serial.clock().seconds() / 3.0);
  EXPECT_GE(parallel.clock().seconds() * 8.0,
            serial.clock().seconds() * (1.0 - 1e-12));
}

TEST(ParallelProfilerTest, SingleFlightProfilesEachWorkloadOnce) {
  // Hammer one workload from many engine-level jobs: the single-flight
  // cache must measure it exactly once (one pregen charge, one candidate
  // sweep) no matter how many threads race.
  Profiler prof(kT4, ParallelCost(8));
  const GemmCoord p(1280, 3072, 768);
  std::atomic<int> misses{0};
  prof.pool()->ParallelFor(64, [&](int64_t) {
    auto r = prof.ProfileGemm(p, EpilogueSpec::Linear());
    ASSERT_TRUE(r.ok());
    if (!r.value().cache_hit) misses.fetch_add(1);
  });
  EXPECT_EQ(misses.load(), 1);
  EXPECT_EQ(prof.cache_size(), 1);

  Profiler once(kT4, ParallelCost(8));
  auto r = once.ProfileGemm(p, EpilogueSpec::Linear());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(prof.clock().seconds(), once.clock().seconds());
}

// ---------------------------------------------------------------------------
// Engine-level parallel tuning: the acceptance bar from the issue — on the
// RepVGG workload, 8 workers cut reported wall-clock tuning time >= 3x
// while selecting identical kernels.

TEST(ParallelEngineTest, RepVggParallelTuningMatchesSerialAndIsFaster) {
  models::RepVggOptions mopts;
  mopts.batch = 8;
  mopts.image_size = 32;
  mopts.num_classes = 10;
  auto a0 = models::BuildRepVgg(models::RepVggVariant::kA0, mopts);
  ASSERT_TRUE(a0.ok());

  CompileOptions serial_opts;
  auto serial = Engine::Compile(*a0, serial_opts);
  ASSERT_TRUE(serial.ok());

  CompileOptions parallel_opts;
  parallel_opts.profiler_cost.num_threads = 8;
  auto parallel = Engine::Compile(*a0, parallel_opts);
  ASSERT_TRUE(parallel.ok());

  // Identical kernel selection end to end.
  EXPECT_DOUBLE_EQ(parallel->EstimatedLatencyUs(),
                   serial->EstimatedLatencyUs());
  EXPECT_EQ(parallel->module().FullSource(), serial->module().FullSource());
  EXPECT_EQ(parallel->tuning_report().candidates_tried,
            serial->tuning_report().candidates_tried);

  // >= 3x lower wall-clock tuning time; device seconds stay comparable
  // (the same measurements ran, just spread across workers).
  const double serial_s = serial->tuning_report().seconds;
  const double parallel_s = parallel->tuning_report().seconds;
  EXPECT_GE(serial_s, 3.0 * parallel_s)
      << "serial " << serial_s << "s vs parallel " << parallel_s << "s";
  EXPECT_NEAR(parallel->tuning_report().device_seconds,
              serial->tuning_report().device_seconds,
              1e-6 * serial->tuning_report().device_seconds);
}

}  // namespace
}  // namespace bolt
