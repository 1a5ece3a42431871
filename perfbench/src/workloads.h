// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The perfbench workloads (see perfbench/README.md):
//
//   resnet18_b1     ResNet-18 with BatchNorm, NCHW FP16, batch 1, 56x56;
//                   one caller runs Engine::Run back to back.
//   bert_m256       one BERT-base encoder layer's GEMMs, FP32, 256 rows;
//                   one caller runs Engine::Run back to back.
//   mlp_serve       the 64->256->64 MLP behind serve::Server, single-row
//                   requests with seeded Poisson arrivals (open loop):
//                   a light phase at 2,000 req/s, then a heavy phase at
//                   16,000 req/s.
//   pointwise_conv  a single 1x1 stride-1 NHWC conv (self-test only: the
//                   collector must count it once).
//
// Each run writes a raw JSON report: set-up samples, per-operation
// latencies, registry deltas per phase, graph statistics and the run
// fingerprint.  perfbench/run.py derives the metrics from it (and from
// the Chrome traces when tracing is on).

#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds (split across the phases of the workload).
  double seconds = 10.0;
  /// When set, set-up and half of the measured time are traced, and the
  /// two Chrome traces land in `trace_dir`.
  bool trace = false;
  std::string trace_dir = ".";
  /// Index of the timed operation whose output is corrupted before it is
  /// checked (self-test of the correctness gate); -1 = none.
  int64_t perturb_op = -1;
};

/// Runs one workload.  Returns false when the workload could not be set
/// up (message in `error`); otherwise fills `report` — whose "correct"
/// field says whether every checked output matched.
bool RunWorkload(const Options& options, std::string* report,
                 std::string* error);

}  // namespace perfbench
