#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/fileio.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace bolt {
namespace trace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TraceSink& TraceSink::Global() {
  static TraceSink* sink = new TraceSink();
  return *sink;
}

void TraceSink::Start(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  events_.clear();
  thread_lanes_.clear();
  next_runtime_lane_.store(0, std::memory_order_relaxed);
  start_time_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void TraceSink::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_release);
  events_.clear();
  path_.clear();
}

void TraceSink::InitFromEnv() {
  const char* env = std::getenv("BOLT_TRACE");
  if (env == nullptr || env[0] == '\0') return;
  TraceSink& sink = Global();
  if (sink.enabled()) return;
  sink.Start(env);
  // One flush at process exit, not one per compile.  The sink (and the
  // metrics registry it snapshots) is never destroyed, so it is still
  // alive when the hook runs.
  static std::once_flag exit_hook;
  std::call_once(exit_hook, [] {
    std::atexit([] {
      TraceSink& s = Global();
      if (s.enabled()) (void)s.Flush();  // best-effort at exit
    });
  });
}

std::string TraceSink::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceSink::Emit(Event e) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceSink::EmitSpan(int pid, int tid, const std::string& name,
                         const std::string& cat, double begin_us,
                         double end_us, const std::string& args) {
  if (!enabled()) return;
  Event b;
  b.ph = 'B';
  b.ts_us = begin_us;
  b.pid = pid;
  b.tid = tid;
  b.name = name;
  b.cat = cat;
  b.args = args;
  Event e;
  e.ph = 'E';
  e.ts_us = end_us;
  e.pid = pid;
  e.tid = tid;
  e.name = name;
  e.cat = cat;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(b));
  events_.push_back(std::move(e));
}

double TraceSink::NowUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

int TraceSink::CurrentThreadLane() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = std::this_thread::get_id();
  auto it = thread_lanes_.find(id);
  if (it != thread_lanes_.end()) return it->second;
  const int lane = static_cast<int>(thread_lanes_.size());
  thread_lanes_.emplace(id, lane);
  return lane;
}

int TraceSink::NextRuntimeLane() {
  return next_runtime_lane_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

void WriteEvent(std::ostream& out, const Event& e) {
  out << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\""
      << JsonEscape(e.cat.empty() ? std::string("bolt") : e.cat)
      << "\",\"ph\":\"" << e.ph << "\",\"ts\":";
  char ts[64];
  std::snprintf(ts, sizeof(ts), "%.3f", e.ts_us);
  out << ts << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (!e.args.empty()) out << ",\"args\":" << e.args;
  out << "}";
}

Event Metadata(int pid, int tid, const char* what, const std::string& name) {
  Event m;
  m.ph = 'M';
  m.pid = pid;
  m.tid = tid;
  m.name = what;
  m.cat = "__metadata";
  m.args = StrCat("{\"name\":\"", JsonEscape(name), "\"}");
  return m;
}

}  // namespace

Status TraceSink::WriteTo(std::ostream& out) const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  // Stable sort keeps the chronological emission order of same-timestamp
  // events, which preserves B/E nesting on every lane.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });

  // Synthesize process/thread metadata from the lanes actually used.
  std::vector<Event> meta;
  meta.push_back(Metadata(kPidCompile, 0, "process_name", "bolt.compile"));
  meta.push_back(
      Metadata(kPidTuning, 0, "process_name", "bolt.tuning (simulated)"));
  meta.push_back(
      Metadata(kPidRuntime, 0, "process_name", "bolt.runtime (simulated)"));
  meta.push_back(Metadata(kPidCpu, 0, "process_name", "bolt.cpu"));
  meta.push_back(Metadata(kPidCpuTune, 0, "process_name", "bolt.cpu.tune"));
  meta.push_back(Metadata(kPidServe, 0, "process_name", "bolt.serve"));
  std::set<int> tuning_lanes, runtime_lanes;
  for (const Event& e : events) {
    if (e.pid == kPidTuning) tuning_lanes.insert(e.tid);
    if (e.pid == kPidRuntime) runtime_lanes.insert(e.tid);
  }
  for (int tid : tuning_lanes) {
    meta.push_back(Metadata(kPidTuning, tid, "thread_name",
                            StrCat("measure worker ", tid)));
  }
  for (int tid : runtime_lanes) {
    meta.push_back(Metadata(kPidRuntime, tid, "thread_name",
                            StrCat("launch timeline ", tid)));
  }

  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Event& e : meta) {
    if (!first) out << ",\n";
    WriteEvent(out, e);
    first = false;
  }
  for (const Event& e : events) {
    if (!first) out << ",\n";
    WriteEvent(out, e);
    first = false;
  }
  out << "\n],\n\"displayTimeUnit\":\"ms\",\n\"boltMetrics\":"
      << metrics::Registry::Global().DumpJson() << "}\n";
  if (!out.good()) return Status::Internal("trace write failed");
  return Status::Ok();
}

Status TraceSink::Flush() const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_.load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition("trace sink not started");
    }
    path = path_;
  }
  std::ostringstream out;
  Status st = WriteTo(out);
  if (!st.ok()) return st;
  return WriteFileAtomic(path, out.str());
}

Span::Span(int pid, std::string name, std::string cat,
           std::string begin_args) {
  TraceSink& sink = TraceSink::Global();
  if (!sink.enabled()) return;
  active_ = true;
  pid_ = pid;
  tid_ = sink.CurrentThreadLane();
  name_ = std::move(name);
  cat_ = std::move(cat);
  Event b;
  b.ph = 'B';
  b.ts_us = sink.NowUs();
  b.pid = pid_;
  b.tid = tid_;
  b.name = name_;
  b.cat = cat_;
  b.args = std::move(begin_args);
  sink.Emit(std::move(b));
}

Span::~Span() {
  if (!active_) return;
  TraceSink& sink = TraceSink::Global();
  Event e;
  e.ph = 'E';
  e.ts_us = sink.NowUs();
  e.pid = pid_;
  e.tid = tid_;
  e.name = name_;
  e.cat = cat_;
  sink.Emit(std::move(e));
}

}  // namespace trace
}  // namespace bolt
