// Tests for src/common: half-precision emulation, status handling,
// activations, strings, RNG determinism, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/activations.h"
#include "common/fileio.h"
#include "common/half.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/ulp.h"

namespace bolt {
namespace {

TEST(HalfTest, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(half_t(f).to_float(), f) << i;
  }
}

TEST(HalfTest, KnownBitPatterns) {
  EXPECT_EQ(half_t(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(half_t(-2.0f).bits(), 0xC000u);
  EXPECT_EQ(half_t(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half_t(65504.0f).bits(), 0x7BFFu);  // max finite
  EXPECT_EQ(half_t(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half_t(-0.0f).bits(), 0x8000u);
}

TEST(HalfTest, OverflowToInfinity) {
  EXPECT_TRUE(half_t(65520.0f).is_inf());  // rounds up past max
  EXPECT_TRUE(half_t(1e30f).is_inf());
  EXPECT_TRUE(half_t(-1e30f).is_inf());
  EXPECT_FALSE(half_t(65503.0f).is_inf());
}

TEST(HalfTest, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(half_t(nan).is_nan());
  EXPECT_TRUE(std::isnan(half_t(nan).to_float()));
}

TEST(HalfTest, SubnormalsRepresentable) {
  // Smallest positive subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(half_t(tiny).bits(), 0x0001u);
  EXPECT_EQ(half_t(tiny).to_float(), tiny);
  // Below half the smallest subnormal rounds to zero.
  EXPECT_EQ(half_t(std::ldexp(1.0f, -26)).bits(), 0x0000u);
}

TEST(HalfTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half value
  // (1 + 2^-10); ties to even -> 1.0 (even mantissa).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(half_t(halfway).to_float(), 1.0f);
  // Just above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -11) * 1.01f;
  EXPECT_EQ(half_t(above).to_float(), 1.0f + std::ldexp(1.0f, -10));
}

TEST(HalfTest, QuantizeIsIdempotent) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const float f = rng.Normal(0.0f, 100.0f);
    const float once = half_t::Quantize(f);
    EXPECT_EQ(half_t::Quantize(once), once);
  }
}

TEST(HalfTest, RoundTripAllBitPatterns) {
  // Property: every finite half bit pattern survives half->float->half.
  for (uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    half_t h = half_t::FromBits(static_cast<uint16_t>(bits));
    if (h.is_nan()) continue;
    half_t round_tripped(h.to_float());
    EXPECT_EQ(round_tripped.bits(), h.bits()) << "bits=" << bits;
  }
}

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad tile");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "INVALID_ARGUMENT: bad tile");
}

TEST(ResultTest, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorAccessThrows) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_THROW(r.value(), std::runtime_error);
}

TEST(StringsTest, JoinSplitReplace) {
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, ","), "1,2,3");
  EXPECT_EQ(StrSplit("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(ReplaceAll("xaxax", "a", "bb"), "xbbxbbx");
  EXPECT_TRUE(StartsWith("cutlite_tensorop", "cutlite"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_EQ(StrCat("m=", 128, " n=", 64), "m=128 n=64");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

// ---- Activations ---------------------------------------------------------

class ActivationParamTest
    : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationParamTest, GradientMatchesNumericDerivative) {
  const ActivationKind kind = GetParam();
  const float eps = 1e-3f;
  for (float x : {-4.0f, -1.5f, -0.1f, 0.1f, 0.7f, 2.0f, 5.0f}) {
    const float numeric = (ApplyActivation(kind, x + eps) -
                           ApplyActivation(kind, x - eps)) /
                          (2 * eps);
    const float analytic = ActivationGrad(kind, x);
    EXPECT_NEAR(analytic, numeric, 5e-3f)
        << ActivationName(kind) << " at x=" << x;
  }
}

TEST_P(ActivationParamTest, NameRoundTrips) {
  const ActivationKind kind = GetParam();
  auto parsed = ActivationFromName(ActivationName(kind));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationParamTest,
    ::testing::Values(ActivationKind::kIdentity, ActivationKind::kRelu,
                      ActivationKind::kGelu, ActivationKind::kHardswish,
                      ActivationKind::kSoftplus, ActivationKind::kSigmoid));

TEST(ActivationTest, KnownValues) {
  EXPECT_EQ(ApplyActivation(ActivationKind::kRelu, -1.0f), 0.0f);
  EXPECT_EQ(ApplyActivation(ActivationKind::kRelu, 2.0f), 2.0f);
  EXPECT_NEAR(ApplyActivation(ActivationKind::kGelu, 0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(ApplyActivation(ActivationKind::kHardswish, 3.0f), 3.0f,
              1e-6f);
  EXPECT_EQ(ApplyActivation(ActivationKind::kHardswish, -3.0f), 0.0f);
  EXPECT_NEAR(ApplyActivation(ActivationKind::kSoftplus, 0.0f),
              std::log(2.0f), 1e-6f);
  EXPECT_NEAR(ApplyActivation(ActivationKind::kSigmoid, 0.0f), 0.5f,
              1e-6f);
}

// Accuracy of the portable activations (ExpPortable, common/activations.h)
// against the same formulas evaluated in double.  The bounds are the
// measured maxima with headroom:
//   * ExpPortable on [-87, 88]: 1 ULP measured, bound 2.
//   * GELU on [-1, inf): 2 ULP measured, bound 4 (the libm tanh form was 4).
//   * GELU on [-3, -1): 15 ULP measured, bound 32 (the tanh form was 204).
//   * GELU below -3: the result is under 4e-3 in magnitude and the exp
//     argument's rounding is amplified by up to 2|u|, so the bound is
//     absolute: 3.2e-9 measured, bound 1e-8.  Past x = -10.45 the exp
//     overflows to +inf and GELU returns -0.
//   * Sigmoid on [-87, inf): 2 ULP measured, bound 4; below, an absolute
//     1e-37 (the true value is at most 1.7e-38 there).
constexpr int64_t kExpPortableMaxUlps = 2;
constexpr int64_t kGeluMaxUlps = 4;
constexpr int64_t kGeluTailMaxUlps = 32;
constexpr double kGeluFarTailAbs = 1e-8;
constexpr int64_t kSigmoidMaxUlps = 4;
constexpr double kSigmoidFarTailAbs = 1e-37;

double GeluDouble(float x) {
  const double u = static_cast<double>(expconst::kGeluAlpha) *
                   (x + static_cast<double>(expconst::kGeluBeta) * x * x * x);
  return x / (1.0 + std::exp(-2.0 * u));
}

double SigmoidDouble(float x) { return 1.0 / (1.0 + std::exp(-x)); }

TEST(ActivationAccuracyTest, ExpPortableWithinTwoUlps) {
  int64_t worst = 0;
  for (double xd = -87.0; xd <= 88.0; xd += 1.0 / 4096) {
    const float x = static_cast<float>(xd);
    const int64_t d = Float32UlpDiff(
        ExpPortable(x), static_cast<float>(std::exp(static_cast<double>(x))));
    worst = std::max(worst, d);
    ASSERT_LE(d, kExpPortableMaxUlps) << "x=" << x;
  }
  EXPECT_GT(worst, 0);  // the sweep exercised real rounding
  EXPECT_EQ(ExpPortable(0.0f), 1.0f);
  EXPECT_EQ(ExpPortable(-0.0f), 1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ExpPortable(-1000.0f), ExpPortable(-87.0f));
  EXPECT_GT(ExpPortable(-inf), 0.0f);
  EXPECT_EQ(ExpPortable(88.5f), inf);
  EXPECT_EQ(ExpPortable(89.0f), inf);
  EXPECT_EQ(ExpPortable(1000.0f), inf);
  EXPECT_EQ(ExpPortable(inf), inf);
  EXPECT_TRUE(std::isnan(
      ExpPortable(std::numeric_limits<float>::quiet_NaN())));
}

TEST(ActivationAccuracyTest, GeluMatchesTheDoubleFormula) {
  for (double xd = -40.0; xd <= 40.0; xd += 1.0 / 1024) {
    const float x = static_cast<float>(xd);
    const float got = ApplyActivation(ActivationKind::kGelu, x);
    const double want = GeluDouble(x);
    if (x >= -1.0f) {
      ASSERT_LE(Float32UlpDiff(got, static_cast<float>(want)), kGeluMaxUlps)
          << "x=" << x;
    } else if (x >= -3.0f) {
      ASSERT_LE(Float32UlpDiff(got, static_cast<float>(want)),
                kGeluTailMaxUlps)
          << "x=" << x;
    } else {
      ASSERT_LE(std::fabs(got - want), kGeluFarTailAbs) << "x=" << x;
    }
  }
  for (const float x : {1e3f, 1e20f, std::numeric_limits<float>::max()}) {
    EXPECT_EQ(ApplyActivation(ActivationKind::kGelu, x), x);
    EXPECT_EQ(ApplyActivation(ActivationKind::kGelu, -x), 0.0f);
  }
  EXPECT_EQ(ApplyActivation(ActivationKind::kGelu, 0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(ApplyActivation(ActivationKind::kGelu, -0.0f)));
  // The limits at the infinities: +inf, and -0 (not -inf/inf = NaN).
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ApplyActivation(ActivationKind::kGelu, inf), inf);
  const float gelu_neg_inf = ApplyActivation(ActivationKind::kGelu, -inf);
  EXPECT_EQ(gelu_neg_inf, 0.0f);
  EXPECT_TRUE(std::signbit(gelu_neg_inf));
  EXPECT_TRUE(std::isnan(ApplyActivation(
      ActivationKind::kGelu, std::numeric_limits<float>::quiet_NaN())));
}

TEST(ActivationAccuracyTest, SigmoidMatchesTheDoubleFormula) {
  for (double xd = -100.0; xd <= 100.0; xd += 1.0 / 1024) {
    const float x = static_cast<float>(xd);
    const float got = ApplyActivation(ActivationKind::kSigmoid, x);
    const double want = SigmoidDouble(x);
    if (x >= -87.0f) {
      ASSERT_LE(Float32UlpDiff(got, static_cast<float>(want)),
                kSigmoidMaxUlps)
          << "x=" << x;
    } else {
      ASSERT_LE(std::fabs(got - want), kSigmoidFarTailAbs) << "x=" << x;
    }
  }
  EXPECT_EQ(ApplyActivation(ActivationKind::kSigmoid, 0.0f), 0.5f);
  EXPECT_EQ(ApplyActivation(ActivationKind::kSigmoid,
                            std::numeric_limits<float>::infinity()),
            1.0f);
  EXPECT_TRUE(std::isnan(ApplyActivation(
      ActivationKind::kSigmoid, std::numeric_limits<float>::quiet_NaN())));
}

TEST(StringsTest, ParseDoubleIsStrict) {
  double d = -1.0;
  EXPECT_TRUE(ParseDouble("12.5", &d));
  EXPECT_DOUBLE_EQ(d, 12.5);
  EXPECT_TRUE(ParseDouble("-0.25", &d));
  EXPECT_DOUBLE_EQ(d, -0.25);
  EXPECT_TRUE(ParseDouble("3e-2", &d));
  EXPECT_DOUBLE_EQ(d, 0.03);
  d = 42.0;
  EXPECT_FALSE(ParseDouble("12.5abc", &d));
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  EXPECT_FALSE(ParseDouble("1.5 ", &d));
  EXPECT_DOUBLE_EQ(d, 42.0);  // untouched on failure
}

TEST(StringsTest, ParseIntIsStrict) {
  int i = -1;
  EXPECT_TRUE(ParseInt("17", &i));
  EXPECT_EQ(i, 17);
  EXPECT_TRUE(ParseInt("-3", &i));
  EXPECT_EQ(i, -3);
  i = 42;
  EXPECT_FALSE(ParseInt("17abc", &i));
  EXPECT_FALSE(ParseInt("0x11", &i));
  EXPECT_FALSE(ParseInt("", &i));
  EXPECT_FALSE(ParseInt("1.5", &i));
  EXPECT_FALSE(ParseInt("99999999999999999999", &i));  // overflow
  EXPECT_EQ(i, 42);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(1000, [&](int64_t i) { visits[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer jobs each run an inner loop on the same pool; the caller
  // participates, so a saturated pool degrades to serial execution
  // instead of deadlocking.
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(16, [&](int64_t j) { sum.fetch_add(j); });
  });
  EXPECT_EQ(sum.load(), 8 * (15 * 16 / 2));
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  // Regression: a throwing body used to unwind ParallelFor while helper
  // tasks still dereferenced the caller's stack frame (use-after-free),
  // and a throw inside a worker escaped WorkerLoop into std::terminate.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  auto body = [&](int64_t i) {
    if (i == 37) throw std::runtime_error("body failed at 37");
    ran.fetch_add(1);
  };
  EXPECT_THROW(pool.ParallelFor(200, body), std::runtime_error);
  // Fail-fast: indices claimed after the failure are skipped, but every
  // body that did run completed before ParallelFor returned.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), 200);
  // The pool survives: later loops on the same pool work normally.
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstErrorOnCaller) {
  // Multiple concurrent throwers: exactly one exception surfaces, on the
  // calling thread, and its message is one of the thrown ones.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 8; ++round) {
    bool caught = false;
    try {
      pool.ParallelFor(100, [&](int64_t i) {
        if (i % 10 == 3) {
          throw std::runtime_error(StrCat("err", i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_TRUE(StartsWith(e.what(), "err")) << e.what();
    }
    EXPECT_TRUE(caught);
  }
}

TEST(ThreadPoolTest, ParallelForExceptionInNestedLoop) {
  // A throw inside a nested (caller-participating) loop must propagate
  // out of the inner loop, get captured by the outer loop's body guard,
  // and surface once at the outermost caller.
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](int64_t) {
                                  pool.ParallelFor(16, [&](int64_t j) {
                                    if (j == 5) {
                                      throw std::logic_error("inner");
                                    }
                                  });
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 24; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 24);
}

TEST(FileIoTest, WriteFileAtomicRoundTrips) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "bolt_fileio_roundtrip_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "out.txt").string();
  ASSERT_TRUE(WriteFileAtomic(path, "hello\nworld").ok());
  std::string got;
  ASSERT_TRUE(ReadFile(path, &got).ok());
  EXPECT_EQ(got, "hello\nworld");
  // Overwrite is atomic too.
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  ASSERT_TRUE(ReadFile(path, &got).ok());
  EXPECT_EQ(got, "v2");
  // No temp files linger after success.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1);
  fs::remove_all(dir);
}

TEST(FileIoTest, WriteFileAtomicErrorPathRemovesTempFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bolt_fileio_err_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The destination is a *directory*, so the final rename must fail — and
  // the written-and-fsynced temp file must be cleaned up, not leaked.
  const fs::path target = dir / "target_is_a_dir";
  fs::create_directories(target);
  const Status st = WriteFileAtomic(target.string(), "payload");
  EXPECT_FALSE(st.ok());
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1) << "temp file leaked next to the failed target";
  fs::remove_all(dir);
}

TEST(FileIoTest, WriteFileAtomicFailsCleanlyInMissingDirectory) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "bolt_no_such_dir" / "x.txt").string();
  fs::remove_all(fs::temp_directory_path() / "bolt_no_such_dir");
  EXPECT_FALSE(WriteFileAtomic(path, "payload").ok());
}

TEST(ActivationTest, CostOrderingMatchesComplexity) {
  // The paper's Table 4 observation: Softplus is the most expensive
  // epilogue, ReLU the cheapest.
  EXPECT_LT(ActivationCostMultiplier(ActivationKind::kRelu),
            ActivationCostMultiplier(ActivationKind::kHardswish));
  EXPECT_LT(ActivationCostMultiplier(ActivationKind::kHardswish),
            ActivationCostMultiplier(ActivationKind::kGelu));
  EXPECT_LT(ActivationCostMultiplier(ActivationKind::kGelu),
            ActivationCostMultiplier(ActivationKind::kSoftplus));
}

}  // namespace
}  // namespace bolt
