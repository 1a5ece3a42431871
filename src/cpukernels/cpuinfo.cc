// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "cpukernels/cpuinfo.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "cpukernels/config.h"
#include "cpukernels/micro.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace bolt {
namespace cpukernels {
namespace {

#if defined(_SC_LEVEL1_DCACHE_SIZE)
int64_t SysconfCache(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<int64_t>(v) : 0;
}
#endif

/// Parses a sysfs cache size string like "32K", "1024K", or "8M".
int64_t ParseSysfsSize(const std::string& raw) {
  std::string s = raw;
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  if (s.empty()) return 0;
  int64_t mult = 1;
  if (s.back() == 'K' || s.back() == 'k') {
    mult = 1024;
    s.pop_back();
  } else if (s.back() == 'M' || s.back() == 'm') {
    mult = 1024 * 1024;
    s.pop_back();
  }
  int value = 0;
  if (!ParseInt(s, &value) || value <= 0) return 0;
  return static_cast<int64_t>(value) * mult;
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scans /sys/devices/system/cpu/cpu0/cache/index*/ for data/unified
/// caches; fills any level found.
void ScanSysfs(CpuCacheInfo* info, bool* found_l1, bool* found_l2,
               bool* found_l3) {
  for (int idx = 0; idx < 16; ++idx) {
    const std::string base =
        StrCat("/sys/devices/system/cpu/cpu0/cache/index", idx, "/");
    const std::string type = ReadSmallFile(base + "type");
    if (type.empty()) break;
    if (type.rfind("Data", 0) != 0 && type.rfind("Unified", 0) != 0) {
      continue;
    }
    std::string level_s = ReadSmallFile(base + "level");
    while (!level_s.empty() && level_s.back() == '\n') level_s.pop_back();
    int level = 0;
    if (!ParseInt(level_s, &level)) continue;
    const int64_t bytes = ParseSysfsSize(ReadSmallFile(base + "size"));
    if (bytes <= 0) continue;
    if (level == 1) {
      info->l1_bytes = bytes;
      *found_l1 = true;
    } else if (level == 2) {
      info->l2_bytes = bytes;
      *found_l2 = true;
    } else if (level == 3) {
      info->l3_bytes = bytes;
      *found_l3 = true;
    }
  }
}

}  // namespace

CpuCacheInfo DetectCacheInfo() {
  CpuCacheInfo info;  // starts at the conservative defaults
  bool l1 = false, l2 = false, l3 = false;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  if (int64_t v = SysconfCache(_SC_LEVEL1_DCACHE_SIZE); v > 0) {
    info.l1_bytes = v;
    l1 = true;
  }
  if (int64_t v = SysconfCache(_SC_LEVEL2_CACHE_SIZE); v > 0) {
    info.l2_bytes = v;
    l2 = true;
  }
  if (int64_t v = SysconfCache(_SC_LEVEL3_CACHE_SIZE); v > 0) {
    info.l3_bytes = v;
    l3 = true;
  }
#endif
  if (!l1 || !l2 || !l3) ScanSysfs(&info, &l1, &l2, &l3);
  // Containers sometimes report L2 but no L3; treat a missing outer level
  // as at least the size of the inner one so nc enumeration stays sane.
  if (info.l2_bytes < info.l1_bytes) info.l2_bytes = info.l1_bytes * 8;
  if (info.l3_bytes < info.l2_bytes) info.l3_bytes = info.l2_bytes * 8;
  return info;
}

const CpuCacheInfo& HostCacheInfo() {
  static const CpuCacheInfo info = DetectCacheInfo();
  return info;
}

bool ParseCpuIsa(const std::string& s, CpuIsa* out) {
  if (s == "auto") {
    *out = CpuIsa::kAuto;
  } else if (s == "scalar") {
    *out = CpuIsa::kScalar;
  } else if (s == "avx2") {
    *out = CpuIsa::kAvx2;
  } else if (s == "avx512") {
    *out = CpuIsa::kAvx512;
  } else {
    return false;
  }
  return true;
}

std::optional<CpuIsa> ParseCpuIsaEnv(const char* value) {
  if (value == nullptr) return std::nullopt;
  // ParseCpuIsa matches the full string exactly, so "avx2 " / "avx2,foo"
  // style trailing garbage is rejected rather than truncated — the same
  // strictness contract as ParseCpuThreadsEnv/ParseCpuBackendEnv.
  CpuIsa isa = CpuIsa::kAuto;
  if (!ParseCpuIsa(std::string(value), &isa)) return std::nullopt;
  return isa;
}

bool HostSupportsAvx512() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    // The OS must have enabled extended state saving (OSXSAVE) before
    // XGETBV is even legal to execute; AVX for the YMM lanes.
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (!osxsave || !avx) return false;
    // XCR0 must report SSE|AVX|opmask|ZMM_Hi256|Hi16_ZMM state enabled
    // (bits 1,2,5,6,7 = 0xe6): a kernel that does not context-switch the
    // ZMM state makes the instructions fault even when CPUID advertises
    // them.
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0u));
    (void)xcr0_hi;
    if ((xcr0_lo & 0xe6u) != 0xe6u) return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const bool f = (ebx & (1u << 16)) != 0;    // AVX512F
    const bool vl = (ebx & (1u << 31)) != 0;   // AVX512VL
    return f && vl;
  }();
  return supported;
#else
  return false;
#endif
}

bool HostSupportsF16c() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("f16c") != 0;
  return supported;
#else
  return false;
#endif
}

CpuIsa DetectedCpuIsa() {
  static const CpuIsa detected = [] {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (internal::Avx512MicroKernelAvailable() && HostSupportsAvx512() &&
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      // AVX2+FMA is also required: the SIMD pack/epilogue paths and the
      // AVX2 rung the ladder can clamp to both assume it (every AVX-512
      // part ships them, but the probe should not).
      return CpuIsa::kAvx512;
    }
    if (internal::Avx2MicroKernelAvailable() &&
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return CpuIsa::kAvx2;
    }
#endif
    return CpuIsa::kScalar;
  }();
  return detected;
}

CpuIsa EnvCpuIsa() {
  static const CpuIsa env = [] {
    const char* v = std::getenv("BOLT_CPU_ISA");
    if (v == nullptr) return CpuIsa::kAuto;
    if (auto isa = ParseCpuIsaEnv(v)) return *isa;
    // Loud rejection (once, via the static init): silently falling back
    // to kAuto made a typo like BOLT_CPU_ISA="avx2 " run a different
    // numeric tier than the operator asked for.
    std::fprintf(stderr,
                 "bolt: ignoring unparseable BOLT_CPU_ISA=\"%s\" "
                 "(expected auto|scalar|avx2|avx512)\n",
                 v);
    return CpuIsa::kAuto;
  }();
  return env;
}

CpuIsa ResolveCpuIsaFor(CpuIsa requested, CpuIsa env, CpuIsa host) {
  if (env == CpuIsa::kScalar) return CpuIsa::kScalar;  // hard kill-switch
  if (requested == CpuIsa::kAuto) requested = env;
  if (requested == CpuIsa::kAuto) requested = host;  // best probed rung
  const int rank = CpuIsaRank(requested) < CpuIsaRank(host)
                       ? CpuIsaRank(requested)
                       : CpuIsaRank(host);
  switch (rank) {
    case 2:
      return CpuIsa::kAvx512;
    case 1:
      return CpuIsa::kAvx2;
    default:
      return CpuIsa::kScalar;
  }
}

CpuIsa ResolveCpuIsa(CpuIsa requested) {
  return ResolveCpuIsaFor(requested, EnvCpuIsa(), DetectedCpuIsa());
}

CpuIsa DefaultCpuIsa() { return ResolveCpuIsa(CpuIsa::kAuto); }

namespace {

std::optional<CpuPackMode> EnvCpuPackMode() {
  static const std::optional<CpuPackMode> env = [] {
    const char* v = std::getenv("BOLT_CPU_PACK");
    if (v == nullptr) return std::optional<CpuPackMode>();
    if (auto mode = ParseCpuPackModeEnv(v)) {
      return std::optional<CpuPackMode>(*mode);
    }
    std::fprintf(stderr,
                 "bolt: ignoring unparseable BOLT_CPU_PACK=\"%s\" "
                 "(expected simd|scalar)\n",
                 v);
    return std::optional<CpuPackMode>();
  }();
  return env;
}

// -1 = no runtime override; otherwise a CpuPackMode value.
std::atomic<int> g_pack_mode_override{-1};

}  // namespace

std::optional<CpuPackMode> ParseCpuPackModeEnv(const char* value) {
  if (value == nullptr) return std::nullopt;
  const std::string v(value);
  if (v == "simd") return CpuPackMode::kSimd;
  if (v == "scalar") return CpuPackMode::kScalar;
  return std::nullopt;
}

CpuPackMode CurrentCpuPackMode() {
  const int forced = g_pack_mode_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<CpuPackMode>(forced);
  return EnvCpuPackMode().value_or(CpuPackMode::kSimd);
}

void SetCpuPackMode(CpuPackMode mode) {
  g_pack_mode_override.store(static_cast<int>(mode),
                             std::memory_order_relaxed);
}

std::string CpuArchTokenFor(const CpuCacheInfo& info, CpuIsa isa) {
  return StrCat("cpu", kMR, "x", kNR, "-l1_", info.l1_bytes, "-l2_",
                info.l2_bytes, "-l3_", info.l3_bytes, "-", CpuIsaName(isa));
}

const std::string& CpuArchToken() {
  static const std::string token =
      CpuArchTokenFor(HostCacheInfo(), DefaultCpuIsa());
  return token;
}

}  // namespace cpukernels
}  // namespace bolt
