#include "core/online.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/data_order.hpp"
#include "cost/center_costs.hpp"
#include "graph/layered_dag.hpp"
#include "pim/memory.hpp"

namespace pimsched {

DataSchedule scheduleOnline(const WindowedRefs& refs, const CostModel& model,
                            const OnlineOptions& options) {
  if (options.lookahead < 0) {
    throw std::invalid_argument("scheduleOnline: negative lookahead");
  }
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  DataSchedule schedule(refs.numData(), W);

  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));

  const std::size_t P = static_cast<std::size_t>(grid.size());
  CostBuffer nodeCosts;
  LayeredDagScratch scratch;
  LayeredPath path;

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    // Serving costs per window are reused across horizons.
    std::vector<std::vector<Cost>> serve(static_cast<std::size_t>(W));
    for (WindowId w = 0; w < W; ++w) {
      serve[static_cast<std::size_t>(w)] =
          centerCosts(model, refs.refs(d, w));
    }

    ProcId prev = kNoProc;
    for (WindowId w = 0; w < W; ++w) {
      const int horizon =
          std::min<int>(W - w, options.lookahead + 1);
      // Layer l of the horizon DP is window w + l; the committed previous
      // center enters as a movement term on layer 0. Capacity: only the
      // window being committed must have room — future windows' slots are
      // not reserved (they will be re-checked when committed), matching
      // an online system that cannot reserve the future.
      nodeCosts.resize(static_cast<std::size_t>(horizon) * P);
      for (int l = 0; l < horizon; ++l) {
        const std::vector<Cost>& row =
            serve[static_cast<std::size_t>(w + l)];
        std::copy(row.begin(), row.end(),
                  nodeCosts.data() + static_cast<std::size_t>(l) * P);
      }
      for (ProcId p = 0; p < grid.size(); ++p) {
        Cost& c = nodeCosts[static_cast<std::size_t>(p)];
        if (!occupancy[static_cast<std::size_t>(w)].hasRoom(p)) {
          c = kInfiniteCost;
        } else if (prev != kNoProc) {
          c = satAdd(c, model.moveCost(prev, p));
        }
      }
      LayeredDagSolver::solveManhattan(grid, horizon, nodeCosts, beta, 0,
                                       scratch.dp, scratch, path);
      if (!path.feasible()) {
        throw std::runtime_error(
            "scheduleOnline: capacity infeasible (window full)");
      }
      const auto chosen = static_cast<ProcId>(path.nodes[0]);
      occupancy[static_cast<std::size_t>(w)].tryPlace(chosen);
      schedule.setCenter(d, w, chosen);
      prev = chosen;
    }
  }
  return schedule;
}

}  // namespace pimsched
