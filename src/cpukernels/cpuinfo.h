// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// CPU cache-hierarchy detection for the blocking autotuner.
//
// Bolt's thesis is that templated libraries already know which parameters
// are architecture-plausible, so the profiler only has to measure a small
// hardware-derived set (PAPER.md §4).  On the CPU that hardware knowledge
// is the cache hierarchy: kc is sized so a packed B strip stays L1
// resident, mc so the packed A panel stays L2 resident, and nc so the
// packed B panel stays L3 resident.  This header exposes the detected
// sizes plus a stable arch token that namespaces tuning-cache entries, so
// a cache file tuned on one machine is never replayed on another.
//
// The same file owns the instruction-set probe: the micro-kernel exists in
// a bit-exact scalar flavor, an AVX2+FMA flavor (micro_avx2.cc), and an
// AVX-512 flavor (micro_avx512.cc); which one a launch uses is decided
// here — detected capability, clamped by the BOLT_CPU_ISA environment
// override and the per-block request (BlockConfig::isa).
// docs/CPU_BACKEND.md describes the resulting two-tier numeric contract.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace bolt {
namespace cpukernels {

/// Which micro-kernel instruction set a kernel launch uses.  The ladder is
/// ordered: scalar < avx2 < avx512; resolution clamps a request down the
/// ladder to what the host can execute.
enum class CpuIsa : int {
  /// Follow the process default: BOLT_CPU_ISA if set, otherwise the best
  /// rung the host probe finds (DetectedCpuIsa).  Default numerics are
  /// therefore ULP-bounded on SIMD hosts; BOLT_CPU_ISA=scalar restores
  /// the bit-exact tier process-wide.
  kAuto = 0,
  /// Portable scalar micro-kernel; bit-identical to RefExecutor.
  kScalar = 1,
  /// AVX2+FMA micro-kernel; ULP-bounded against RefExecutor.
  kAvx2 = 2,
  /// AVX-512 (F+VL) 4x16 micro-kernel; same ULP-bounded tier as AVX2 (one
  /// fused rounding per k term, ascending-k accumulation order).
  kAvx512 = 3,
};

inline const char* CpuIsaName(CpuIsa isa) {
  switch (isa) {
    case CpuIsa::kAuto:
      return "auto";
    case CpuIsa::kScalar:
      return "scalar";
    case CpuIsa::kAvx2:
      return "avx2";
    case CpuIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

/// Position of an ISA on the capability ladder (kAuto ranks as scalar).
/// Resolution takes the min rank of request and host.
inline int CpuIsaRank(CpuIsa isa) {
  switch (isa) {
    case CpuIsa::kAvx512:
      return 2;
    case CpuIsa::kAvx2:
      return 1;
    default:
      return 0;
  }
}

/// Parses "auto" | "scalar" | "avx2" | "avx512" (the BOLT_CPU_ISA
/// vocabulary).  Returns false (and leaves *out alone) for anything else.
bool ParseCpuIsa(const std::string& s, CpuIsa* out);

/// Strict parse of a BOLT_CPU_ISA environment value: nullopt for null and
/// for anything outside the exact vocabulary (trailing garbage like
/// "avx2 " or "scalar,avx2" is rejected, never truncated).  Exposed for
/// tests; EnvCpuIsa warns once on stderr when this rejects a set value
/// instead of silently running a different tier than the operator asked
/// for.
std::optional<CpuIsa> ParseCpuIsaEnv(const char* value);

/// True when the running CPU + OS can execute AVX-512 F+VL: checks
/// CPUID.1:ECX OSXSAVE/AVX, XGETBV(0) for XMM/YMM/opmask/ZMM state
/// enablement, and CPUID.7:EBX AVX512F + AVX512VL.  Pure host probe —
/// independent of whether the binary carries the AVX-512 kernel.
bool HostSupportsAvx512();

/// True when the running CPU reports F16C (needed by the vectorized FP16
/// epilogue quantization; AVX2 resolution does not imply it).
bool HostSupportsF16c();

/// Best micro-kernel ISA this host can execute: the highest rung whose
/// kernel is compiled into the binary and whose features the CPU/OS
/// report.  Detected once per process and cached.
CpuIsa DetectedCpuIsa();

/// The BOLT_CPU_ISA environment override, read once and cached: kScalar,
/// kAvx2, or kAvx512 when set to a valid value, kAuto when unset.  An
/// unparseable value is rejected loudly (one stderr warning) and treated
/// as unset.
CpuIsa EnvCpuIsa();

/// Resolution of a per-launch request against the environment override
/// and host capability (pure function, exposed for tests):
///   * env=scalar is a hard kill-switch: everything resolves kScalar,
///     even an explicit kAvx2/kAvx512 request — the knob that restores
///     the bit-exact tier process-wide.
///   * an explicit request otherwise wins, clamped down the ladder to
///     what the host can run (kAvx512 degrades to kAvx2 on AVX2-only
///     hosts, to kScalar on scalar hosts; kAvx2 never widens to kAvx512).
///   * kAuto follows env (clamped), and defaults to the host's best
///     rung when env is unset.
/// The result is always executable: kScalar, kAvx2, or kAvx512 — never
/// kAuto.
CpuIsa ResolveCpuIsaFor(CpuIsa requested, CpuIsa env, CpuIsa host);

/// ResolveCpuIsaFor against the process environment and detected host.
CpuIsa ResolveCpuIsa(CpuIsa requested);

/// ResolveCpuIsa(kAuto): the ISA a default-configured launch executes.
CpuIsa DefaultCpuIsa();

/// Whether the SIMD tiers use the vectorized PackA/PackB and fused
/// epilogue paths (kSimd, the default) or the scalar data-movement loops
/// (kScalar).  Both produce bit-identical packed panels and outputs —
/// the knob exists so benches can measure the vectorization win and so a
/// miscompare can be bisected to pack vs micro-kernel in the field.
/// The scalar ISA tier always uses scalar data movement regardless.
enum class CpuPackMode : int {
  kSimd = 0,
  kScalar = 1,
};

/// Strict parse of a BOLT_CPU_PACK environment value ("simd" | "scalar");
/// nullopt for null or garbage.
std::optional<CpuPackMode> ParseCpuPackModeEnv(const char* value);

/// Process-wide pack mode: the BOLT_CPU_PACK override when set to a valid
/// value (warn-once on garbage), else kSimd — unless overridden by
/// SetCpuPackMode below.
CpuPackMode CurrentCpuPackMode();

/// Runtime override of the pack mode (benches/tests; thread-safe).
void SetCpuPackMode(CpuPackMode mode);

/// Detected data-cache sizes in bytes.  Every field is positive: levels
/// the platform does not report fall back to conservative defaults
/// (32 KiB / 1 MiB / 8 MiB).
struct CpuCacheInfo {
  int64_t l1_bytes = 32 * 1024;
  int64_t l2_bytes = 1024 * 1024;
  int64_t l3_bytes = 8 * 1024 * 1024;
};

/// Returns the host cache hierarchy, detected once per process via
/// sysconf/sysfs and cached.  Thread-safe.
const CpuCacheInfo& HostCacheInfo();

/// Detection without the process-wide cache (exposed for tests).
CpuCacheInfo DetectCacheInfo();

/// Stable identity token for cpu tuning-cache keys, e.g.
/// "cpu4x8-l1_32768-l2_1048576-l3_8388608-scalar".  Encodes the
/// micro-tile, the detected cache sizes, and the default ISA mode — every
/// input candidate enumeration and measurement depend on — so foreign
/// entries are rejected at load time.  The ISA suffix means a cache tuned
/// with SIMD kernels can never silently re-activate in a process running
/// the bit-exact scalar tier (or vice versa, or across SIMD rungs).
const std::string& CpuArchToken();

/// Token for an explicit cache description and ISA mode (exposed for
/// tests); `isa` should be a resolved mode: kScalar, kAvx2, or kAvx512.
std::string CpuArchTokenFor(const CpuCacheInfo& info, CpuIsa isa);

}  // namespace cpukernels
}  // namespace bolt
