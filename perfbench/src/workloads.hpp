#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string servedBinary;  ///< pimsched_served
  std::string cliBinary;     ///< pimsched_cli, for the solve-large set-up
  std::string workDir;       ///< sockets, daemon logs, span files
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< errors + rejections + transport + mismatches
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why the run is not correct

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Names of the workloads runWorkload accepts.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Runs one workload: builds its seeded inputs, starts and times the
/// system under test, drives it for opts.seconds, checks every output and
/// reports end-to-end metrics (opts.trace false) or per-layer metrics
/// (opts.trace true).
[[nodiscard]] RunResult runWorkload(const RunOptions& opts);

}  // namespace perfbench
