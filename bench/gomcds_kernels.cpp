// gomcds_kernels — flat-kernel GOMCDS sweep: grid sizes 4x4 -> 64x64 on a
// matmul trace, comparing the frozen pre-flat callback solver against
// scheduleGomcds, dispatched and with the SIMD tier forced to scalar. Emits
// results/bench_gomcds.json and self-checks that all three variants
// produce bit-identical schedules (exit 1 on divergence).
//
//   gomcds_kernels [--smoke] [--out FILE] [--repeat N] [--warmup N]
//
// --smoke stops the sweep at 16x16 for CI. The callback baseline below is
// a verbatim copy of the pre-flat implementation (std::function node
// costs, per-layer vector allocations, per-datum cost-table lookups, no
// dedup), kept here so the bench keeps measuring the real before/after no
// matter how the library evolves.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/data_order.hpp"
#include "core/gomcds.hpp"
#include "core/pipeline.hpp"
#include "cost/cost_cache.hpp"
#include "graph/layered_dag.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "kernels/benchmarks.hpp"
#include "pim/memory.hpp"
#include "util/aligned.hpp"

namespace {

using namespace pimsched;
using NodeCostFn = std::function<Cost(int, int)>;

// --- frozen pre-flat baseline ------------------------------------------

std::vector<Cost> cbMinPlus(const Grid& grid, const std::vector<Cost>& in,
                            Cost beta) {
  std::vector<Cost> h = in;
  const int R = grid.rows();
  const int C = grid.cols();
  const auto at = [&](int r, int c) -> Cost& {
    return h[static_cast<std::size_t>(grid.id(r, c))];
  };
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      if (c > 0) at(r, c) = std::min(at(r, c), satAdd(at(r, c - 1), beta));
      if (r > 0) at(r, c) = std::min(at(r, c), satAdd(at(r - 1, c), beta));
    }
  }
  for (int r = R - 1; r >= 0; --r) {
    for (int c = C - 1; c >= 0; --c) {
      if (c + 1 < C) at(r, c) = std::min(at(r, c), satAdd(at(r, c + 1), beta));
      if (r + 1 < R) at(r, c) = std::min(at(r, c), satAdd(at(r + 1, c), beta));
    }
  }
  return h;
}

LayeredPath cbSolveManhattan(const Grid& grid, int numLayers,
                             const NodeCostFn& nodeCost, Cost beta) {
  const int numNodes = grid.size();
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(numLayers),
      std::vector<Cost>(static_cast<std::size_t>(numNodes), kInfiniteCost));
  for (int p = 0; p < numNodes; ++p) {
    dp[0][static_cast<std::size_t>(p)] = nodeCost(0, p);
  }
  for (int w = 1; w < numLayers; ++w) {
    const std::vector<Cost> relaxed =
        cbMinPlus(grid, dp[static_cast<std::size_t>(w - 1)], beta);
    for (int p = 0; p < numNodes; ++p) {
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          satAdd(relaxed[static_cast<std::size_t>(p)], nodeCost(w, p));
    }
  }
  LayeredPath out;
  const std::vector<Cost>& last = dp[static_cast<std::size_t>(numLayers - 1)];
  const auto best = std::min_element(last.begin(), last.end());
  out.total = *best;
  if (out.total >= kInfiniteCost) return out;
  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last.begin());
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const Cost target =
        dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(cur)];
    const Cost own = nodeCost(w, cur);
    int prev = -1;
    for (int q = 0; q < numNodes; ++q) {
      const Cost trans = beta * grid.manhattan(static_cast<ProcId>(q),
                                               static_cast<ProcId>(cur));
      const Cost cand = satAdd(
          satAdd(dp[static_cast<std::size_t>(w - 1)][static_cast<std::size_t>(q)],
                 trans),
          own);
      if (cand == target) {
        prev = q;
        break;
      }
    }
    if (prev < 0) {
      std::cerr << "error: baseline reconstruction failed\n";
      std::exit(1);
    }
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
  return out;
}

DataSchedule scheduleCallback(const WindowedRefs& refs, const CostModel& model,
                              const SchedulerOptions& options) {
  DataSchedule schedule(refs.numData(), refs.numWindows());
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));
  CenterCostCache cache(model);
  std::vector<std::vector<Cost>> serve(static_cast<std::size_t>(W));
  for (const DataId d : dataVisitOrder(refs, options.order)) {
    for (WindowId w = 0; w < W; ++w) {
      cache.costsInto(refs.refs(d, w), serve[static_cast<std::size_t>(w)]);
    }
    const auto nodeCost = [&](int w, int p) -> Cost {
      if (!occupancy[static_cast<std::size_t>(w)].hasRoom(
              static_cast<ProcId>(p))) {
        return kInfiniteCost;
      }
      return serve[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)];
    };
    const LayeredPath path = cbSolveManhattan(grid, W, nodeCost, beta);
    if (!path.feasible()) {
      std::cerr << "error: baseline infeasible\n";
      std::exit(1);
    }
    for (WindowId w = 0; w < W; ++w) {
      const auto p =
          static_cast<ProcId>(path.nodes[static_cast<std::size_t>(w)]);
      occupancy[static_cast<std::size_t>(w)].tryPlace(p);
      schedule.setCenter(d, w, p);
    }
  }
  return schedule;
}

// -----------------------------------------------------------------------

bool sameSchedule(const DataSchedule& a, const DataSchedule& b) {
  if (a.numData() != b.numData() || a.numWindows() != b.numWindows()) {
    return false;
  }
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      if (a.center(d, w) != b.center(d, w)) return false;
    }
  }
  return true;
}

/// Equivalence-class count from the signatures directly (independent of
/// the obs counters, so the bench self-check works under PIMSCHED_NO_OBS).
int countDedupClasses(const WindowedRefs& refs) {
  std::unordered_map<std::uint64_t, std::vector<DataId>> bySig;
  int classes = 0;
  for (DataId d = 0; d < refs.numData(); ++d) {
    std::vector<DataId>& reps = bySig[refs.refsSignature(d)];
    bool found = false;
    for (const DataId r : reps) {
      if (refs.sameRefs(r, d)) {
        found = true;
        break;
      }
    }
    if (!found) {
      reps.push_back(d);
      ++classes;
    }
  }
  return classes;
}

struct Point {
  int side = 0;
  int n = 0;
  DataId data = 0;
  int windows = 0;
  std::int64_t capacity = 0;
  double callbackMs = 0;
  double flatMs = 0;
  double flatScalarMs = 0;
  int dedupClasses = 0;
  bool match = false;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

// --- kernel-level micro timings ----------------------------------------
//
// Times the solver's hot kernels in isolation — the chamfer min-plus sweep,
// the full per-datum layered solve, and the elementwise relax/combine rows
// — under the forced-scalar tier and the dispatched tier, on the same
// 64-byte-aligned tables the solver uses. This is where the per-kernel
// SIMD speedup is visible without scheduling bookkeeping on top.

struct MicroRow {
  int side = 0;
  std::string kernel;
  double scalarUs = 0;
  double simdUs = 0;
  [[nodiscard]] double speedup() const {
    return simdUs > 0 ? scalarUs / simdUs : 0.0;
  }
};

/// Median-of-repeat per-call microseconds of `fn` run `iters` times.
double microUs(const std::function<void()>& fn, int iters, int repeat) {
  benchtool::RepeatOptions rep;
  rep.repeat = repeat;
  rep.warmup = 1;
  const double ms = benchtool::medianRunMs(
      [&] {
        for (int i = 0; i < iters; ++i) fn();
      },
      rep);
  return ms * 1000.0 / iters;
}

std::vector<MicroRow> kernelMicro(int side, int repeat) {
  const Grid grid(side, side);
  const std::size_t n = static_cast<std::size_t>(grid.size());
  const int layers = 8;
  std::uint64_t state = 12345 + static_cast<std::uint64_t>(side);
  const auto rnd = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  CostBuffer table(n * static_cast<std::size_t>(layers));
  for (Cost& c : table) {
    c = rnd() % 6 == 0 ? kInfiniteCost : static_cast<Cost>(rnd() % 40);
  }
  CostBuffer row(n);
  CostBuffer acc(n);
  CostBuffer out(n);
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = static_cast<Cost>(rnd() % 1000);
    acc[i] = static_cast<Cost>(rnd() % 1000);
  }
  const Cost beta = 2;
  const int iters = side >= 64 ? 200 : 500;

  LayeredDagScratch scratch;
  LayeredPath path;
  const std::span<const Cost> tableSpan(table.data(), table.size());

  struct Probe {
    const char* name;
    std::function<void()> fn;
  };
  const std::vector<Probe> probes = {
      {"chamfer_minplus",
       [&] {
         manhattanMinPlusInto(grid, std::span<const Cost>(acc.data(), n),
                              beta, std::span<Cost>(out.data(), n));
       }},
      {"layered_solve",
       [&] {
         LayeredDagSolver::solveManhattan(grid, layers, tableSpan, beta, 0,
                                          scratch.dp, scratch, path);
       }},
      {"min_plus_row",
       [&] {
         simd::active().minPlusRow(row.data(), beta, acc.data(), n);
       }},
      {"combine_layer",
       [&] {
         simd::active().combineLayer(row.data(), acc.data(), out.data(), n);
       }},
  };

  std::vector<MicroRow> rows;
  const simd::Tier dispatched = simd::activeTier();
  for (const Probe& probe : probes) {
    MicroRow r;
    r.side = side;
    r.kernel = probe.name;
    simd::forceTier(simd::Tier::kScalar);
    r.scalarUs = microUs(probe.fn, iters, repeat);
    simd::forceTier(dispatched);
    r.simdUs = microUs(probe.fn, iters, repeat);
    rows.push_back(r);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "results/bench_gomcds.json";
  benchtool::RepeatOptions rep;
  rep.repeat = 0;  // 0 = not set on the command line; defaulted below
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (benchtool::parseRepeatArg(argc, argv, i, rep)) {
      // consumed "--repeat N" / "--warmup N"
    } else {
      std::cerr << "usage: gomcds_kernels [--smoke] [--out FILE] "
                   "[--repeat N] [--warmup N]\n";
      return 2;
    }
  }
  if (rep.repeat == 0) rep.repeat = smoke ? 1 : 3;
  if (smoke && rep.warmup == 0) rep.warmup = 0;

  const std::vector<int> sides =
      smoke ? std::vector<int>{4, 8, 16} : std::vector<int>{4, 8, 16, 32, 64};
  std::vector<Point> points;
  bool allMatch = true;

  for (const int side : sides) {
    const Grid grid(side, side);
    const int n = 2 * side;  // paper convention: data array 2x the grid side
    const ReferenceTrace trace =
        makePaperBenchmark(PaperBenchmark::kMatSquare, grid, n);
    PipelineConfig cfg;
    cfg.numWindows = 8;
    const Experiment exp(trace, grid, cfg);
    const SchedulerOptions opts{exp.capacity(), cfg.order};

    Point pt;
    pt.side = side;
    pt.n = n;
    pt.data = exp.refs().numData();
    pt.windows = exp.refs().numWindows();
    pt.capacity = exp.capacity();
    pt.dedupClasses = countDedupClasses(exp.refs());

    // Correctness first: all variants must agree bit-for-bit — including
    // the flat solver with the SIMD dispatch forced to scalar, which pins
    // down cross-tier schedule identity at full-pipeline granularity.
    const simd::Tier dispatched = simd::activeTier();
    const DataSchedule base =
        scheduleCallback(exp.refs(), exp.costModel(), opts);
    const DataSchedule flat = scheduleGomcds(exp.refs(), exp.costModel(), opts);
    simd::forceTier(simd::Tier::kScalar);
    const DataSchedule flatScalar =
        scheduleGomcds(exp.refs(), exp.costModel(), opts);
    simd::forceTier(dispatched);
    pt.match = sameSchedule(base, flat) && sameSchedule(base, flatScalar);
    allMatch = allMatch && pt.match;

    pt.callbackMs = benchtool::medianRunMs(
        [&] { (void)scheduleCallback(exp.refs(), exp.costModel(), opts); },
        rep);
    pt.flatMs = benchtool::medianRunMs(
        [&] { (void)scheduleGomcds(exp.refs(), exp.costModel(), opts); },
        rep);
    simd::forceTier(simd::Tier::kScalar);
    pt.flatScalarMs = benchtool::medianRunMs(
        [&] { (void)scheduleGomcds(exp.refs(), exp.costModel(), opts); },
        rep);
    simd::forceTier(dispatched);
    points.push_back(pt);

    std::cout << "grid " << side << "x" << side << " (n=" << n << ", data="
              << pt.data << ", classes=" << pt.dedupClasses << "): callback "
              << fmt(pt.callbackMs) << " ms, flat " << fmt(pt.flatMs)
              << " ms (scalar " << fmt(pt.flatScalarMs) << " ms, simd "
              << fmt(pt.flatMs > 0 ? pt.flatScalarMs / pt.flatMs : 0)
              << "x), " << fmt(pt.flatMs > 0 ? pt.callbackMs / pt.flatMs : 0)
              << "x vs callback, schedules "
              << (pt.match ? "match" : "DIVERGE") << "\n";
  }

  // Kernel-level scalar-vs-SIMD micro timings at the large grid sizes
  // (the smoke sweep stops earlier, so probe its largest side instead).
  const std::vector<int> microSides =
      smoke ? std::vector<int>{16} : std::vector<int>{32, 64};
  std::vector<MicroRow> micro;
  for (const int side : microSides) {
    for (const MicroRow& r : kernelMicro(side, rep.repeat)) {
      micro.push_back(r);
      std::cout << "kernel " << r.kernel << " @" << r.side << "x" << r.side
                << ": scalar " << fmt(r.scalarUs) << " us, simd "
                << fmt(r.simdUs) << " us (" << fmt(r.speedup()) << "x)\n";
    }
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
  os << "{\n"
     << "  \"kernel\": \"matsquare\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"repeat\": " << rep.repeat << ",\n"
     << "  \"warmup\": " << rep.warmup << ",\n"
     << "  \"simd_tier\": \"" << simd::tierName(simd::activeTier())
     << "\",\n"
     << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"grid\": \"" << p.side << "x" << p.side << "\", \"n\": "
       << p.n << ", \"data\": " << p.data << ", \"windows\": " << p.windows
       << ", \"capacity\": " << p.capacity << ", \"callback_ms\": "
       << fmt(p.callbackMs) << ", \"flat_ms\": " << fmt(p.flatMs)
       << ", \"flat_scalar_ms\": " << fmt(p.flatScalarMs)
       << ", \"speedup_flat\": "
       << fmt(p.flatMs > 0 ? p.callbackMs / p.flatMs : 0)
       << ", \"speedup_simd_vs_scalar\": "
       << fmt(p.flatMs > 0 ? p.flatScalarMs / p.flatMs : 0)
       << ", \"dedup_classes\": " << p.dedupClasses << ", \"dedup_data\": "
       << (static_cast<std::int64_t>(p.data) - p.dedupClasses)
       << ", \"schedules_match\": " << (p.match ? "true" : "false") << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"kernel_micro\": [\n";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const MicroRow& r = micro[i];
    os << "    {\"grid\": \"" << r.side << "x" << r.side
       << "\", \"kernel\": \"" << r.kernel << "\", \"scalar_us\": "
       << fmt(r.scalarUs) << ", \"simd_us\": " << fmt(r.simdUs)
       << ", \"speedup\": " << fmt(r.speedup()) << "}"
       << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << outPath << "\n";

  if (!allMatch) {
    std::cerr << "error: flat/callback schedules diverge\n";
    return 1;
  }
  return 0;
}
