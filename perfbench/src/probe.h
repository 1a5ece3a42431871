// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// Measurement helpers for the perfbench binary: a steady clock, deltas of
// the always-on metrics registry, a resident-set sampler, benchmark spans
// on the trace sink, and a small JSON writer for the raw report that
// perfbench/run.py turns into metrics.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock (arbitrary epoch).
double NowUs();

/// Values of the registry instruments the benchmark reads: every counter
/// by name, and each histogram as "<name>.count" and "<name>.sum".
using Snapshot = std::map<std::string, double>;

/// Reads the fixed instrument set (see probe.cc).
Snapshot TakeSnapshot();

/// after - before, key by key.
Snapshot Delta(const Snapshot& before, const Snapshot& after);

/// The process resident set now, in MB (10^6 bytes).
double ResidentMb();

/// Samples the process resident set every `period_us` on a background
/// thread and keeps the maximum, so the peak of a phase can be read
/// without counting what set-up and the reference check touched.
class RssSampler {
 public:
  explicit RssSampler(int64_t period_us = 10000);
  ~RssSampler();

  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Peak resident set seen so far, in MB (10^6 bytes).
  double peak_mb() const;

 private:
  void Loop();

  const int64_t period_us_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> peak_pages_{0};
  std::thread thread_;  // declared last: uses the members above
};

/// Lane of the benchmark's own spans in the Chrome trace.
inline constexpr int kPidBench = 100;

/// Emits one benchmark span on kPidBench (no-op when tracing is off).
/// `begin_us`/`end_us` are trace-sink times (TraceSink::NowUs()).
void EmitBenchSpan(const std::string& name, double begin_us, double end_us);

/// Trace-sink time, or 0 when tracing is off.
double TraceNowUs();

/// Minimal JSON object writer.  Keys are written as given (callers use
/// plain identifiers); strings are escaped.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  /// A list of numbers printed with one decimal (microsecond samples).
  JsonObject& List(const std::string& key, const std::vector<double>& v);
  JsonObject& Map(const std::string& key, const Snapshot& m);
  /// Pre-rendered JSON value (object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Renders a list of pre-rendered JSON values as an array.
std::string JsonArray(const std::vector<std::string>& items);

}  // namespace perfbench
