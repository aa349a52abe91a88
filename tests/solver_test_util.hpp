#pragma once

// Test-side helpers over the two LayeredDagSolver kernels, plus an
// independent per-datum GOMCDS that serves as the oracle for the
// production driver's class sharing.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/data_order.hpp"
#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/center_costs.hpp"
#include "cost/cost_model.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched::testutil {

/// Cold table-kernel solve into fresh buffers.
inline LayeredPath solveTableCold(int layers, int nodes,
                                  std::span<const Cost> nodeCosts,
                                  std::span<const Cost> trans) {
  LayeredDagScratch scratch;
  LayeredPath out;
  LayeredDagSolver::solveTable(layers, nodes, nodeCosts, trans, 0, scratch.dp,
                               scratch, out);
  return out;
}

/// Cold Manhattan-kernel solve into fresh buffers.
inline LayeredPath solveManhattanCold(const Grid& grid, int layers,
                                      std::span<const Cost> nodeCosts,
                                      Cost beta) {
  LayeredDagScratch scratch;
  LayeredPath out;
  LayeredDagSolver::solveManhattan(grid, layers, nodeCosts, beta, 0,
                                   scratch.dp, scratch, out);
  return out;
}

/// Row-major layers x nodes table of nodeCost(layer, node).
template <class NodeFn>
std::vector<Cost> nodeTable(int layers, int nodes, const NodeFn& nodeCost) {
  std::vector<Cost> t(static_cast<std::size_t>(layers) *
                      static_cast<std::size_t>(nodes));
  for (int w = 0; w < layers; ++w) {
    for (int p = 0; p < nodes; ++p) {
      t[static_cast<std::size_t>(w) * static_cast<std::size_t>(nodes) +
        static_cast<std::size_t>(p)] = nodeCost(w, p);
    }
  }
  return t;
}

/// Row-major nodes x nodes table of transCost(prevNode, node), rows by
/// source.
template <class TransFn>
std::vector<Cost> transTable(int nodes, const TransFn& transCost) {
  return nodeTable(nodes, nodes, transCost);
}

/// Table-kernel solve of a cost-graph given as callbacks, materialized into
/// tables first.
template <class NodeFn, class TransFn>
LayeredPath solveCallbacks(int layers, int nodes, const NodeFn& nodeCost,
                           const TransFn& transCost) {
  return solveTableCold(layers, nodes, nodeTable(layers, nodes, nodeCost),
                        transTable(nodes, transCost));
}

/// manhattanMinPlusInto into a fresh vector.
inline std::vector<Cost> manhattanMinPlus(const Grid& grid,
                                          const std::vector<Cost>& in,
                                          Cost beta) {
  std::vector<Cost> out(in.size());
  manhattanMinPlusInto(grid, in, beta, out);
  return out;
}

/// Share-nothing GOMCDS: visits data in options.order; for each datum it
/// computes that datum's own serving-cost table, forbids every (window,
/// processor) slot its own occupancy counts mark full, runs one table-kernel
/// solve against model.moveCost, and places the path. No equivalence
/// classes, shared tables or paths, chamfer kernel or thread pool — the
/// production driver must match it bit for bit.
inline DataSchedule referenceGomcds(const WindowedRefs& refs,
                                    const CostModel& model,
                                    const SchedulerOptions& options = {}) {
  const int W = refs.numWindows();
  const int P = model.grid().size();
  const std::size_t pn = static_cast<std::size_t>(P);
  // Slot bound per processor: the capacity tightened by fault limits.
  std::vector<std::int64_t> cap(pn, options.capacity);
  if (const FaultMap* faults = model.faults()) {
    for (ProcId p = 0; p < P; ++p) {
      const std::int64_t limit = faults->capacityLimit(p);
      std::int64_t& c = cap[static_cast<std::size_t>(p)];
      if (limit >= 0) c = c < 0 ? limit : std::min(c, limit);
    }
  }
  std::vector<std::int64_t> used(static_cast<std::size_t>(W) * pn, 0);
  const std::vector<Cost> trans = transTable(
      P, [&](int q, int p) { return model.moveCost(q, p); });

  DataSchedule schedule(refs.numData(), W);
  std::vector<Cost> nodeCosts(static_cast<std::size_t>(W) * pn);
  for (const DataId d : dataVisitOrder(refs, options.order)) {
    for (WindowId w = 0; w < W; ++w) {
      const std::vector<Cost> serve = centerCosts(model, refs.refs(d, w));
      for (std::size_t p = 0; p < pn; ++p) {
        const std::size_t slot = static_cast<std::size_t>(w) * pn + p;
        nodeCosts[slot] = cap[p] >= 0 && used[slot] >= cap[p]
                              ? kInfiniteCost
                              : serve[p];
      }
    }
    const LayeredPath path = solveTableCold(W, P, nodeCosts, trans);
    if (!path.feasible()) {
      throw std::runtime_error("referenceGomcds: no placement path");
    }
    for (WindowId w = 0; w < W; ++w) {
      const int p = path.nodes[static_cast<std::size_t>(w)];
      ++used[static_cast<std::size_t>(w) * pn + static_cast<std::size_t>(p)];
      schedule.setCenter(d, w, static_cast<ProcId>(p));
    }
  }
  return schedule;
}

}  // namespace pimsched::testutil
