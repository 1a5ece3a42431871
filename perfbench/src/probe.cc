// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0

#include "probe.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

namespace {

// Every instrument a metric in run.py reads.  Get-or-create registers
// the ones no code path has touched yet, so they read 0.
const char* const kCounters[] = {
    "cpu.gemm.launches",
    "cpu.gemm.flops",
    "cpu.conv.launches",
    "cpu.conv.flops",
    "cpu.simd.pack.launches",
    "cpu.tuned.lookup.hit",
    "cpu.tuned.lookup.near",
    "cpu.tuned.lookup.miss",
    "profiler.cache_hits",
    "profiler.cache_misses",
    "profiler.candidates_measured",
    "serve.batch.count",
    "serve.batch.failed",
    "serve.engine.hit",
    "serve.engine.miss",
    "serve.sched.dispatch.full",
    "serve.sched.dispatch.deadline",
    "serve.sched.dispatch.slack",
    "serve.request.submitted",
    "serve.request.rejected",
    "serve.request.shed",
    "serve.admit.rejected.lateness",
    "serve.admit.rejected.queue_full",
};

const char* const kHistograms[] = {
    "cpu.gemm.us",
    "cpu.conv.us",
    "serve.batch.rows",
    "serve.batch.padded_rows",
    "serve.batch.exec_us",
    "serve.request.latency_us",
};

std::string Escape(const std::string& s) {
  return bolt::trace::JsonEscape(s);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Snapshot TakeSnapshot() {
  bolt::metrics::Registry& reg = bolt::metrics::Registry::Global();
  Snapshot s;
  for (const char* name : kCounters) {
    s[name] = static_cast<double>(reg.GetCounter(name).value());
  }
  for (const char* name : kHistograms) {
    const bolt::metrics::Histogram& h = reg.GetHistogram(name);
    s[std::string(name) + ".count"] = static_cast<double>(h.count());
    s[std::string(name) + ".sum"] = h.sum();
  }
  return s;
}

Snapshot Delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    d[key] = value - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

namespace {

int64_t ResidentPages() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return statm ? resident : 0;
}

double PagesToMb(int64_t pages) {
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

}  // namespace

double ResidentMb() { return PagesToMb(ResidentPages()); }

RssSampler::RssSampler(int64_t period_us)
    : period_us_(period_us), thread_([this] { Loop(); }) {}

RssSampler::~RssSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void RssSampler::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int64_t pages = ResidentPages();
    if (pages > peak_pages_.load(std::memory_order_relaxed)) {
      peak_pages_.store(pages, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(period_us_));
  }
}

double RssSampler::peak_mb() const {
  return PagesToMb(
      std::max(peak_pages_.load(std::memory_order_relaxed), ResidentPages()));
}

void EmitBenchSpan(const std::string& name, double begin_us,
                   double end_us) {
  bolt::trace::TraceSink& sink = bolt::trace::TraceSink::Global();
  if (!sink.enabled()) return;
  sink.EmitSpan(kPidBench, sink.CurrentThreadLane(), name, "bench",
                begin_us, end_us);
}

double TraceNowUs() {
  bolt::trace::TraceSink& sink = bolt::trace::TraceSink::Global();
  return sink.enabled() ? sink.NowUs() : 0.0;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + Escape(key) + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += FormatNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key,
                            const std::string& value) {
  Key(key);
  body_ += "\"" + Escape(value) + "\"";
  return *this;
}

JsonObject& JsonObject::List(const std::string& key,
                             const std::vector<double>& v) {
  Key(key);
  body_ += "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", i ? "," : "", v[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Map(const std::string& key, const Snapshot& m) {
  JsonObject inner;
  for (const auto& [k, v] : m) inner.Num(k, v);
  return Raw(key, inner.str());
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += items[i];
  }
  return out + "]";
}

}  // namespace perfbench
