// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// perfbench: runs one workload and writes its raw report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out REPORT.json [--trace-dir DIR] [--perturb-op I]
//
// Exit code: 0 when every checked output matched, 1 when one did not
// (the report is still written), 2 on a usage or set-up error.  Normally
// launched through perfbench/run.py, which builds this binary and turns
// the report into metrics.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--trace-dir DIR] "
               "[--perturb-op I]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0.0)) return Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--perturb-op") {
      o.perturb_op = std::strtoll(value.c_str(), &end, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty() || out_path.empty()) {
    return Usage("--workload and --out are required");
  }

  std::string report, error;
  if (!perfbench::RunWorkload(o, &report, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::ofstream out(out_path);
  out << report << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return report.find("\"correct\":true") != std::string::npos ? 0 : 1;
}
