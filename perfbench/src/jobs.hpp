#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "pim/grid.hpp"
#include "serve/service.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// splitmix64: tiny, seedable, identical on every host.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int bound) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(bound));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Derives an independent stream seed for one named part of a workload.
[[nodiscard]] std::uint64_t seedFor(std::uint64_t seed, std::string_view tag);

/// The paper's five kernels plus the extra kernels of src/kernels.
enum class Kernel {
  kLu, kMatSquare, kLuCode, kMatCode, kCodeRev,
  kCholesky, kFloydWarshall, kJacobi, kTranspose, kSpmv, kWavefront, kBanded,
};
[[nodiscard]] std::string kernelName(Kernel k);
[[nodiscard]] pimsched::ReferenceTrace makeKernelTrace(
    Kernel k, const pimsched::Grid& grid, int n);

/// One scheduling job as a client submits it: the trace (sent inline as
/// pimtrace text) plus every submit field that can change the answer.
struct JobSpec {
  std::string label;
  pimsched::ReferenceTrace trace{pimsched::DataSpace{}};
  int rows = 4;
  int cols = 4;
  pimsched::Method method = pimsched::Method::kGomcds;
  int windows = 8;
  std::int64_t capacity = pimsched::PipelineConfig::kPaperCapacity;
  std::vector<std::string> faults;
  unsigned threads = 1;
};

/// Finalizes `trace` into a JobSpec.
[[nodiscard]] JobSpec makeJob(std::string label, pimsched::ReferenceTrace trace,
                              int rows, int cols, pimsched::Method method,
                              int windows, std::int64_t capacity,
                              std::vector<std::string> faults = {});

/// The PipelineConfig the protocol layer derives from the job's fields.
[[nodiscard]] pimsched::PipelineConfig configOf(const JobSpec& job);
/// The JobRequest the protocol layer builds from the job's submit line.
[[nodiscard]] pimsched::serve::JobRequest toJobRequest(const JobSpec& job);

/// `submit` request line: wait for the result and return the schedule
/// text, as a client that needs the schedule would.
[[nodiscard]] std::string submitLine(const JobSpec& job);
/// `submit-stream` request line for one window of `session`.
[[nodiscard]] std::string streamLine(const JobSpec& job,
                                     const std::string& session);

/// The trace a submit or submit-stream request line carries.
[[nodiscard]] pimsched::ReferenceTrace traceOf(const std::string& line);

/// 128-bit content hash of a schedule text, as hex.
[[nodiscard]] std::string textDigest(std::string_view text);

/// What a correct server must answer for a job.
struct Expected {
  std::int64_t total = 0;
  std::string jobDigest;       ///< jobDigest(toJobRequest(job)).hex()
  std::string scheduleDigest;  ///< textDigest(saveSchedule text)
};

/// Solves the job in-process from cold, the way the daemon's job pipeline
/// does: grid, fault specs, Experiment::schedule, fault verification,
/// evaluation, saveSchedule.
[[nodiscard]] Expected solveCold(const JobSpec& job);

// ---- workload inputs (all deterministic in the seed) ---------------------

/// Runs fn(i) for i in [0, n) on `threads` threads.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn);

/// serve-miss: at least `count` jobs with pairwise distinct job digests
/// (and distinct from probeJob()), built on `threads` threads. Paper and
/// extra kernels on 4x4..16x16 grids, perturbed per job; mostly GOMCDS,
/// some LOMCDS and grouped methods; paper capacity; one in five carries
/// fault specs.
[[nodiscard]] std::vector<JobSpec> missJobs(std::uint64_t seed, int count,
                                            unsigned threads);

/// serve-hot: a small catalogue of small jobs drawn Zipf-style, plus a
/// pool of distinct burst jobs every connection submits at once.
struct HotInputs {
  std::vector<JobSpec> catalogue;
  std::vector<double> cdf;  ///< Zipf CDF over catalogue ranks
  std::vector<JobSpec> bursts;
};
[[nodiscard]] HotInputs hotInputs(std::uint64_t seed, int burstCount);

/// solve-large: matmul, LU and code-rev over 24x24 data arrays on a 32x32
/// grid at 8 and 32 windows, half at paper capacity and half unlimited.
[[nodiscard]] std::vector<JobSpec> largeJobs(std::uint64_t seed,
                                             unsigned threads);

/// The fixed small job every daemon launch is timed to (set-up probe).
[[nodiscard]] JobSpec probeJob();

/// stream-churn: one evolving trace on a 32x32 grid, 16 windows, one trace
/// step per window. Data come in groups that share reference strings;
/// each advance rewrites the trailing quarter of the windows for about
/// half of the groups, as bench/incremental_stream does.
class StreamGen {
 public:
  static constexpr int kGrid = 32;
  static constexpr int kWindows = 16;
  static constexpr int kDataN = 32;         ///< 1024 data
  static constexpr int kGroupSize = 16;     ///< data sharing one string
  static constexpr int kChurnWindows = 4;   ///< 25% of the windows

  explicit StreamGen(std::uint64_t seed);

  /// The current revision as a job (unlimited capacity: the warm path
  /// needs static masks).
  [[nodiscard]] JobSpec revision() const;
  /// Moves to the next revision.
  void advance();

 private:
  struct Row {
    std::vector<int> proc, weight;
  };
  Row freshRow();

  Rng rng_;
  int numGroups_;
  std::vector<Row> rows_;  ///< [window][group]
};

}  // namespace perfbench
