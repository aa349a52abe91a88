// perfbench — one benchmark run of pimsched.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --served PATH --cli PATH --work-dir DIR
//
// Generates the workload's inputs from the seed, starts and times the
// system under test (the pimsched_served daemon, or pimsched_cli and the
// library in-process for solve-large), drives it closed-loop for S
// seconds, checks every output against an in-process cold solve, and
// prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of the same run plus a span replay of its inputs.
// Sockets, daemon logs and span files go under DIR. Exit code 0 only when
// every check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --served PATH --cli PATH --work-dir DIR\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = value != "0";
      } else if (arg == "--served") {
        o.servedBinary = value;
      } else if (arg == "--cli") {
        o.cliBinary = value;
      } else if (arg == "--work-dir") {
        o.workDir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  try {
    if (o.workload.empty() || o.servedBinary.empty() || o.cliBinary.empty() ||
        o.workDir.empty() || !(o.seconds > 0)) {
      return usage();
    }
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    const perfbench::RunResult r = perfbench::runWorkload(o);
    for (const std::string& p : r.problems) {
      std::cerr << "perfbench: check failed: " << p << "\n";
    }
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const perfbench::Metric& m = r.metrics[i];
      os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
