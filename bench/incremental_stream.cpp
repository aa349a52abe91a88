// incremental_stream — steady-state cost of the warm-start (incremental)
// GOMCDS solver against a cold full re-solve on a sliding-window stream
// with bounded suffix churn: each stream step rewrites the trailing
// windows of the trace for a subset of the reference groups (churn
// localized in time and in the working set, the serving steady state
// ROADMAP item 3 describes), and both solvers run on every step with the
// schedules compared cell-by-cell. Emits results/bench_incremental.json.
//
//   incremental_stream [--smoke] [--out FILE] [--steps N] [--churn PCT]
//                      [--touched PCT]
//
// --smoke shrinks the workload to CI size and turns the speedup gate into
// a report-only figure; the JSON shape is identical. A full run exits
// nonzero unless the steady-state incremental per-window solve beats the
// cold re-solve by >= 3x at <= 25% suffix churn on the 32x32 and 64x64
// PIM grids. Any schedule mismatch exits nonzero in every mode — the
// speed claim is worthless if the answers differ.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/gomcds.hpp"
#include "core/incremental.hpp"
#include "core/pipeline.hpp"

namespace {

using namespace pimsched;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Deterministic LCG so the stream is identical across runs and hosts.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  int below(int bound) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(bound));
  }
};

/// A streaming workload over a dataN x dataN data array on a gridN x gridN
/// PIM grid, one trace step per window. Data are partitioned into groups
/// of `groupSize` consecutive ids that share identical reference strings —
/// the sharing dense kernels (matmul / LU blocks) exhibit, so the dedup
/// equivalence classes are real. Each stream advance rewrites the trailing
/// `churnWindows` steps for a ~touchedPct% subset of the groups: churn is
/// bounded both in time (a window suffix) and in space (part of the
/// working set), which is how serving traces actually drift.
class Stream {
 public:
  Stream(int gridN, int dataN, int groupSize, int windows,
         std::uint64_t seed)
      : gridN_(gridN),
        dataN_(dataN),
        groupSize_(groupSize),
        windows_(windows),
        numGroups_((dataN * dataN + groupSize - 1) / groupSize),
        rng_(seed) {
    rows_.resize(static_cast<std::size_t>(windows) *
                 static_cast<std::size_t>(numGroups_));
    for (auto& row : rows_) row = freshRow();
  }

  /// One stream advance: rewrite the trailing `churnWindows` steps for a
  /// ~touchedPct% subset of the groups (chosen per step); the other
  /// groups' reference strings stay byte-identical to the previous step.
  void churnTail(int churnWindows, int touchedPct) {
    std::vector<char> touched(static_cast<std::size_t>(numGroups_), 0);
    for (int g = 0; g < numGroups_; ++g) {
      touched[static_cast<std::size_t>(g)] =
          rng_.below(100) < touchedPct ? 1 : 0;
    }
    for (int w = windows_ - churnWindows; w < windows_; ++w) {
      for (int g = 0; g < numGroups_; ++g) {
        if (touched[static_cast<std::size_t>(g)] != 0) {
          rows_[rowIndex(w, g)] = freshRow();
        }
      }
    }
  }

  [[nodiscard]] ReferenceTrace trace() const {
    ReferenceTrace t(DataSpace::singleSquare(dataN_));
    const int numData = dataN_ * dataN_;
    for (int d = 0; d < numData; ++d) t.add(0, 0, d, 1);  // stable domain
    for (int w = 0; w < windows_; ++w) {
      for (int g = 0; g < numGroups_; ++g) {
        const Row& row = rows_[rowIndex(w, g)];
        const int dBegin = g * groupSize_;
        const int dEnd = std::min(dBegin + groupSize_, numData);
        for (int d = dBegin; d < dEnd; ++d) {
          for (std::size_t i = 0; i < row.proc.size(); ++i) {
            t.add(w, row.proc[i], d, row.weight[i]);
          }
        }
      }
    }
    t.finalize();
    return t;
  }

 private:
  struct Row {
    std::vector<int> proc, weight;
  };

  [[nodiscard]] std::size_t rowIndex(int w, int g) const {
    return static_cast<std::size_t>(w) * static_cast<std::size_t>(numGroups_) +
           static_cast<std::size_t>(g);
  }

  Row freshRow() {
    // Two or three referencing processors with mixed weights, like a block
    // read by a few compute tiles.
    Row row;
    const int procs = gridN_ * gridN_;
    const int refs = 2 + (rng_.below(4) == 0 ? 1 : 0);
    for (int i = 0; i < refs; ++i) {
      row.proc.push_back(rng_.below(procs));
      row.weight.push_back(1 + rng_.below(7));
    }
    return row;
  }

  int gridN_;
  int dataN_;
  int groupSize_;
  int windows_;
  int numGroups_;
  Rng rng_;
  std::vector<Row> rows_;
};

struct CaseResult {
  int gridN = 0;
  int dataN = 0;
  int groupSize = 0;
  int windows = 0;
  int churnWindows = 0;
  int steadySteps = 0;
  double coldMs = 0;  ///< median cold re-solve per window
  double warmMs = 0;  ///< median incremental solve per window
  std::int64_t reusedLayers = 0;
  std::int64_t relaxedLayers = 0;
  [[nodiscard]] double speedup() const {
    return warmMs > 0 ? coldMs / warmMs : 0.0;
  }
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

/// Drives one stream for `steps` advances; returns false on any schedule
/// mismatch (the caller exits nonzero).
bool runCase(int gridN, int dataN, int groupSize, int windows,
             int churnWindows, int touchedPct, int steps, CaseResult* out) {
  const Grid grid(gridN, gridN);
  Stream stream(gridN, dataN, groupSize, windows,
                /*seed=*/0x9E3779B97F4A7C15ULL ^
                    static_cast<std::uint64_t>(gridN * 131 + dataN));
  PipelineConfig cfg;
  cfg.numWindows = windows;
  cfg.capacity = PipelineConfig::kUnlimited;  // warm path needs static masks
  SchedulerOptions opts;
  opts.capacity = -1;

  IncrementalSolver solver;
  std::vector<double> coldMs, warmMs;
  std::int64_t reused = 0, relaxed = 0;
  int steady = 0;

  for (int s = 0; s <= steps; ++s) {
    if (s > 0) stream.churnTail(churnWindows, touchedPct);
    const ReferenceTrace trace = stream.trace();
    const Experiment exp(trace, grid, cfg);

    Clock::time_point t0 = Clock::now();
    const DataSchedule cold =
        scheduleGomcds(exp.refs(), exp.costModel(), opts);
    const double coldStep = msSince(t0);

    t0 = Clock::now();
    const DataSchedule warm = solver.solve(exp.refs(), exp.costModel(), opts);
    const double warmStep = msSince(t0);

    for (DataId d = 0; d < cold.numData(); ++d) {
      for (int w = 0; w < cold.numWindows(); ++w) {
        if (cold.center(d, w) != warm.center(d, w)) {
          std::cerr << "error: incremental schedule diverged from cold "
                       "re-solve at step " << s << ", datum " << d
                    << ", window " << w << " (grid=" << gridN << "x"
                    << gridN << ")\n";
          return false;
        }
      }
    }

    // Steady state = warm solves after the first (cold) stream step.
    if (s >= 1 && !solver.lastStats().cold) {
      coldMs.push_back(coldStep);
      warmMs.push_back(warmStep);
      reused += solver.lastStats().reusedLayers;
      relaxed += solver.lastStats().relaxedLayers;
      ++steady;
    }
  }

  out->gridN = gridN;
  out->dataN = dataN;
  out->groupSize = groupSize;
  out->windows = windows;
  out->churnWindows = churnWindows;
  out->steadySteps = steady;
  out->coldMs = benchtool::medianOf(coldMs);
  out->warmMs = benchtool::medianOf(warmMs);
  out->reusedLayers = reused;
  out->relaxedLayers = relaxed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "results/bench_incremental.json";
  int steps = 0;        // 0 = defaulted below
  int churnPct = 25;    // suffix churn as a % of the window count
  int touchedPct = 50;  // % of reference groups a churned suffix rewrites
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      churnPct = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--touched") == 0 && i + 1 < argc) {
      touchedPct = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: incremental_stream [--smoke] [--out FILE] "
                   "[--steps N] [--churn PCT] [--touched PCT]\n";
      return 2;
    }
  }
  if (steps <= 0) steps = smoke ? 4 : 12;
  if (churnPct < 1 || churnPct > 100) {
    std::cerr << "error: --churn must be in [1, 100]\n";
    return 2;
  }
  if (touchedPct < 1 || touchedPct > 100) {
    std::cerr << "error: --touched must be in [1, 100]\n";
    return 2;
  }

  const int windows = 16;
  const int churnWindows = std::max(1, windows * churnPct / 100);
  // {PIM grid edge, data-array edge, sharing-group size}: the 32^2 and
  // 64^2 processor grids the perf target names, with data groups sized so
  // the dedup classes number in the dozens like real blocked kernels.
  struct CaseSpec {
    int gridN, dataN, groupSize;
  };
  const std::vector<CaseSpec> specs =
      smoke ? std::vector<CaseSpec>{{8, 8, 4}, {12, 12, 8}}
            : std::vector<CaseSpec>{{32, 32, 16}, {64, 64, 64}};

  std::vector<CaseResult> cases;
  for (const CaseSpec& spec : specs) {
    CaseResult result;
    if (!runCase(spec.gridN, spec.dataN, spec.groupSize, windows,
                 churnWindows, touchedPct, steps, &result)) {
      return 1;
    }
    std::cout << "grid=" << result.gridN << "x" << result.gridN << " data="
              << result.dataN * result.dataN << ": cold " << fmt(result.coldMs)
              << " ms/window, warm " << fmt(result.warmMs)
              << " ms/window, speedup " << fmt(result.speedup())
              << "x over " << result.steadySteps << " steady steps ("
              << result.reusedLayers << " layers reused, "
              << result.relaxedLayers << " re-relaxed)\n";
    cases.push_back(result);
  }

  std::filesystem::create_directories(
      std::filesystem::path(outPath).parent_path().empty()
          ? "."
          : std::filesystem::path(outPath).parent_path().string());
  std::ofstream os(outPath);
  if (!os) {
    std::cerr << "error: cannot open " << outPath << "\n";
    return 1;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr double kMinSpeedup = 3.0;
  os << "{\n"
     << "  \"workload\": {\"windows\": " << windows
     << ", \"churn_windows\": " << churnWindows << ", \"churn_pct\": "
     << churnPct << ", \"touched_pct\": " << touchedPct << ", \"steps\": "
     << steps << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n"
     << "  \"cpu_count\": " << hw << ",\n"
     << "  \"min_speedup_gate\": " << fmt(kMinSpeedup) << ",\n"
     << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"grid\": \"" << c.gridN << "x" << c.gridN
       << "\", \"data\": " << c.dataN * c.dataN << ", \"group_size\": "
       << c.groupSize << ", \"windows\": " << c.windows
       << ", \"churn_windows\": " << c.churnWindows << ", \"steady_steps\": "
       << c.steadySteps << ", \"cold_ms_per_window\": " << fmt(c.coldMs)
       << ", \"warm_ms_per_window\": " << fmt(c.warmMs)
       << ", \"speedup\": " << fmt(c.speedup())
       << ", \"layers_reused\": " << c.reusedLayers
       << ", \"layers_relaxed\": " << c.relaxedLayers
       << ", \"bit_identical\": true}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << outPath << "\n";

  // Perf gate: every full-size case must clear the floor. Smoke runs report
  // the figures without gating.
  if (!smoke) {
    for (const CaseResult& c : cases) {
      if (c.speedup() < kMinSpeedup) {
        std::cerr << "error: steady-state incremental speedup "
                  << fmt(c.speedup()) << "x on the " << c.gridN << "x"
                  << c.gridN << " grid is below the " << fmt(kMinSpeedup)
                  << "x floor at " << churnPct << "% suffix churn\n";
        return 1;
      }
    }
  }
  return 0;
}
