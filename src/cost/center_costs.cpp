#include "cost/center_costs.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace pimsched {

std::vector<Cost> bruteForceCenterCosts(const CostModel& model,
                                        std::span<const ProcWeight> refs) {
  PIMSCHED_COUNTER_ADD("cost.center_eval_calls", 1);
  const int m = model.grid().size();
  std::vector<Cost> costs(static_cast<std::size_t>(m));
  for (ProcId p = 0; p < m; ++p) {
    costs[static_cast<std::size_t>(p)] = model.serveCost(refs, p);
  }
  return costs;
}

namespace {

/// axisCosts into `f` (same length as `hist`).
void axisCostsInto(std::span<const Cost> hist, std::span<Cost> f) {
  const std::size_t n = hist.size();
  // Left-to-right sweep: contribution of weights at positions <= x.
  Cost weightBelow = 0;  // total weight at positions < x
  Cost costBelow = 0;    // sum w_k * (x - k) over k < x
  for (std::size_t x = 0; x < n; ++x) {
    f[x] = costBelow;
    weightBelow += hist[x];
    costBelow += weightBelow;
  }
  // Right-to-left sweep: contribution of weights at positions > x.
  Cost weightAbove = 0;
  Cost costAbove = 0;
  for (std::size_t xi = n; xi-- > 0;) {
    f[xi] += costAbove;
    weightAbove += hist[xi];
    costAbove += weightAbove;
  }
}

/// Fault-aware table: serveCost per center read off the DistanceMap. Dead
/// centers are kInfiniteCost even for empty reference strings — a datum
/// may never be placed on a dead processor, whether or not anyone reads
/// it this window. On a DistanceMap of an empty FaultMap every distance
/// equals the Manhattan distance, so this produces the same integers the
/// separable sweep does.
void faultCenterCostsInto(const CostModel& model,
                          std::span<const ProcWeight> refs,
                          std::span<Cost> out) {
  const DistanceMap& distances = model.distances();
  const int m = model.grid().size();
  const Cost hop = model.params().hopCost;
  for (ProcId p = 0; p < m; ++p) {
    if (!distances.alive(p)) {
      out[static_cast<std::size_t>(p)] = kInfiniteCost;
      continue;
    }
    Cost sum = 0;
    for (const ProcWeight& pw : refs) {
      const Cost d = distances.hopDistance(p, pw.proc);
      if (d >= kInfiniteCost) {
        sum = kInfiniteCost;
        break;
      }
      sum += pw.weight * d;
    }
    out[static_cast<std::size_t>(p)] =
        sum >= kInfiniteCost ? kInfiniteCost : sum * hop;
  }
}

}  // namespace

std::vector<Cost> axisCosts(std::span<const Cost> hist) {
  std::vector<Cost> f(hist.size());
  axisCostsInto(hist, f);
  return f;
}

void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::span<Cost> out, CenterCostScratch& scratch) {
  PIMSCHED_COUNTER_ADD("cost.center_eval_calls", 1);
  assert(out.size() == static_cast<std::size_t>(model.grid().size()));
  if (model.faultAware()) {
    faultCenterCostsInto(model, refs, out);
    return;
  }
  const Grid& grid = model.grid();
  const auto rows = static_cast<std::size_t>(grid.rows());
  const auto cols = static_cast<std::size_t>(grid.cols());
  scratch.rowHist.assign(rows, 0);
  scratch.colHist.assign(cols, 0);
  scratch.fRow.resize(rows);
  scratch.fCol.resize(cols);
  for (const ProcWeight& pw : refs) {
    const Coord c = grid.coord(pw.proc);
    scratch.rowHist[static_cast<std::size_t>(c.row)] += pw.weight;
    scratch.colHist[static_cast<std::size_t>(c.col)] += pw.weight;
  }
  axisCostsInto(scratch.rowHist, scratch.fRow);
  axisCostsInto(scratch.colHist, scratch.fCol);

  // cost(r, c) = hop * (fRow[r] + fCol[c]). Folding hop into both axes
  // leaves an add over one contiguous row of `out` (ids are row-major),
  // which vectorizes where the 64-bit multiply does not.
  const Cost hop = model.params().hopCost;
  for (Cost& f : scratch.fRow) f *= hop;
  for (Cost& f : scratch.fCol) f *= hop;
  const Cost* fCol = scratch.fCol.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const Cost fRow = scratch.fRow[r];
    Cost* row = out.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] = fRow + fCol[c];
  }
}

std::vector<Cost> separableCenterCosts(const CostModel& model,
                                       std::span<const ProcWeight> refs) {
  std::vector<Cost> costs(static_cast<std::size_t>(model.grid().size()));
  CenterCostScratch scratch;
  separableCenterCostsInto(model, refs, costs, scratch);
  return costs;
}

BestCenter bestCenter(const CostModel& model,
                      std::span<const ProcWeight> refs) {
  const std::vector<Cost> costs = separableCenterCosts(model, refs);
  const auto it = std::min_element(costs.begin(), costs.end());
  return BestCenter{static_cast<ProcId>(it - costs.begin()), *it};
}

}  // namespace pimsched
