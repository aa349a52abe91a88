#pragma once

#include <span>
#include <vector>

#include "cost/cost_model.hpp"

namespace pimsched {

/// Serving cost of a reference string at every candidate center, i.e. the
/// quantity Algorithm 1 computes for "each processor node j".
///
/// Two implementations with identical results:
///  * bruteForceCenterCosts — O(numProcs * |refs|), the literal reading of
///    Algorithm 1 lines 2-4;
///  * separableCenterCosts — O(|refs| + rows + cols + numProcs), exploiting
///    that Manhattan distance separates into row and column terms, so
///    cost(r, c) = f_row(r) + f_col(c) with each axis solvable by prefix
///    sums over a weight histogram (the 1-D weighted-median trick).
///
/// separableCenterCostsInto writes into a caller-owned row of exactly the
/// grid size and keeps its axis histograms in caller-held scratch, so a hot
/// loop that reuses both performs no heap allocation per (datum, window).
/// Every variant counts one `cost.center_eval_calls`.
///
/// When the model is fault-aware (carries a DistanceMap), every variant
/// instead prices centers by fault-aware hop distance; dead processors
/// and centers that cannot reach some referencing processor cost
/// kInfiniteCost, which downstream feasibility checks treat as forbidden.
[[nodiscard]] std::vector<Cost> bruteForceCenterCosts(
    const CostModel& model, std::span<const ProcWeight> refs);

[[nodiscard]] std::vector<Cost> separableCenterCosts(
    const CostModel& model, std::span<const ProcWeight> refs);

/// Grow-only working storage of separableCenterCostsInto: the row and
/// column weight histograms and their axis-cost sweeps.
struct CenterCostScratch {
  std::vector<Cost> rowHist, colHist, fRow, fCol;
};

/// Writes the serving cost of every center into `out`, which must hold
/// exactly grid().size() entries.
void separableCenterCostsInto(const CostModel& model,
                              std::span<const ProcWeight> refs,
                              std::span<Cost> out, CenterCostScratch& scratch);

/// separableCenterCosts, the library default.
[[nodiscard]] inline std::vector<Cost> centerCosts(
    const CostModel& model, std::span<const ProcWeight> refs) {
  return separableCenterCosts(model, refs);
}

/// The minimum-cost center (ties -> smallest ProcId) and its cost.
struct BestCenter {
  ProcId proc = kNoProc;
  Cost cost = 0;
};
[[nodiscard]] BestCenter bestCenter(const CostModel& model,
                                    std::span<const ProcWeight> refs);

/// 1-D helper exposed for testing and for Lemma 1: the weighted L1 cost
/// f(x) = sum_k hist[k]-weighted |x - k| for every x in [0, n). `hist` maps
/// axis position -> total weight.
[[nodiscard]] std::vector<Cost> axisCosts(std::span<const Cost> hist);

}  // namespace pimsched
