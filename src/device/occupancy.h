// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// CUDA occupancy calculation: how many CTAs of a given resource footprint
// fit on one SM.  Drives both the cutlite tensor-core timing model and the
// Ansor SIMT schedule timing model.

#pragma once

#include <cstdint>

#include "device/spec.h"

namespace bolt {

/// Per-CTA resource footprint.
struct CtaResources {
  int threads = 0;
  int64_t smem_bytes = 0;
  int regs_per_thread = 0;
};

/// Resident CTAs per SM (0 means the CTA does not fit at all).
int CtasPerSm(const DeviceSpec& spec, const CtaResources& res);

/// Latency-hiding efficiency of a kernel at the given occupancy: tensor-core
/// pipelines need roughly 8 resident warps per SM to stay fed; below that,
/// issue bubbles appear.  Returns a factor in (0, 1].
double LatencyHidingFactor(const DeviceSpec& spec, int resident_warps);

/// Wave-quantization multiplier >= 1: a grid of `cta_count` CTAs on
/// `capacity` concurrently-resident CTAs takes ceil(w)/w longer than the
/// ideal when w = cta_count / capacity has a fractional tail wave.
double WaveQuantization(int64_t cta_count, int64_t capacity);

}  // namespace bolt
