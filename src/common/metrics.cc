#include "common/metrics.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"
#include "common/trace.h"

namespace bolt {
namespace metrics {

void Histogram::Observe(double value) {
  // Non-finite observations are rejected: a single NaN fed into the sum_
  // CAS loop would poison every later sum (NaN + x == NaN) and serialize
  // as bare `nan`, which is not JSON.
  if (!std::isfinite(value)) return;
  int bucket = 0;
  if (value > 1.0) {
    // Smallest i with value <= 2^i, capped at the overflow bucket.
    bucket = static_cast<int>(std::ceil(std::log2(value)));
    if (bucket < 0) bucket = 0;
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) out[i] = bucket(i);
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out.precision(17);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ",";
    out << "\"" << trace::JsonEscape(name) << "\":" << counter->value();
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out << ",";
    // Belt and braces on `sum`: Observe rejects non-finite values, but a
    // poisoned pre-fix registry (or future bug) must still serialize as
    // valid JSON, so clamp to 0 here.
    const double sum = hist->sum();
    out << "\"" << trace::JsonEscape(name) << "\":{\"count\":"
        << hist->count() << ",\"sum\":" << (std::isfinite(sum) ? sum : 0.0)
        << ",\"buckets\":[";
    const std::vector<int64_t> buckets = hist->bucket_counts();
    int last = static_cast<int>(buckets.size()) - 1;
    while (last > 0 && buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out << ",";
      out << buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace metrics
}  // namespace bolt
