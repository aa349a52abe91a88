#include "core/repair.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "cost/center_costs.hpp"
#include "cost/center_list.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

namespace {

/// Migration charge from `prev` to `p` under the recovery rule: a dead or
/// unroutable source means out-of-band restoration — no mesh traffic.
/// Sets `recovered` when the rule fired (and the datum actually moved).
Cost chargedMove(const CostModel& model, ProcId prev, ProcId p,
                 bool& recovered) {
  recovered = false;
  if (prev == kNoProc || prev == p) return 0;
  if (model.centerForbidden(prev)) {
    recovered = true;
    return 0;
  }
  const Cost m = model.moveCost(prev, p);
  if (m >= kInfiniteCost) {
    recovered = true;
    return 0;
  }
  return m;
}

/// True when the placement (d, w) -> p no longer works under the model's
/// fault state: dead center, a referencing processor that cannot reach it,
/// or an unroutable migration from the (already-final) previous center.
bool placementBroken(const DataSchedule& schedule, const WindowedRefs& refs,
                     const CostModel& model, DataId d, WindowId w, ProcId p) {
  if (model.centerForbidden(p)) return true;
  for (const ProcWeight& pw : refs.refs(d, w)) {
    if (model.hopDistance(p, pw.proc) >= kInfiniteCost) return true;
  }
  if (w > 0) {
    const ProcId prev = schedule.center(d, w - 1);
    if (prev != kNoProc && prev != p && !model.centerForbidden(prev) &&
        model.hopDistance(prev, p) >= kInfiniteCost) {
      return true;
    }
  }
  return false;
}

}  // namespace

RepairResult repairSchedule(const DataSchedule& schedule,
                            const WindowedRefs& refs, const CostModel& model,
                            const RepairOptions& options) {
  PIMSCHED_SCOPED_TIMER("repair.schedule");
  if (schedule.numData() != refs.numData() ||
      schedule.numWindows() != refs.numWindows()) {
    throw std::invalid_argument("repairSchedule: schedule/refs shape mismatch");
  }
  if (options.faultWindow < 0 || options.faultWindow > schedule.numWindows()) {
    throw std::invalid_argument("repairSchedule: faultWindow out of range");
  }

  RepairResult result{schedule};
  if (!model.faultAware()) {
    result.suffixCost =
        repairSuffixCost(result.schedule, refs, model, options.faultWindow);
    return result;
  }

  const Grid& grid = model.grid();
  const DataId numData = schedule.numData();
  std::vector<char> repaired(static_cast<std::size_t>(numData), 0);
  std::vector<DataId> broken;
  std::vector<Cost> costs(static_cast<std::size_t>(grid.size()));
  CenterCostScratch costScratch;

  for (WindowId w = options.faultWindow; w < schedule.numWindows(); ++w) {
    OccupancyMap occupancy(grid, options.capacity);
    applyFaultCapacity(occupancy, *model.faults());

    // Surviving placements keep their slots; anything dead, cut off or
    // squeezed out by reduced capacity queues for re-centering.
    broken.clear();
    for (DataId d = 0; d < numData; ++d) {
      const ProcId p = result.schedule.center(d, w);
      if (placementBroken(result.schedule, refs, model, d, w, p)) {
        broken.push_back(d);
        continue;
      }
      if (!occupancy.tryPlace(p)) {
        ++result.evictions;
        broken.push_back(d);
      }
    }

    for (const DataId d : broken) {
      separableCenterCostsInto(model, refs.refs(d, w), costs, costScratch);
      const ProcId prev =
          w > 0 ? result.schedule.center(d, w - 1) : kNoProc;
      for (ProcId p = 0; p < grid.size(); ++p) {
        bool recovered = false;
        costs[static_cast<std::size_t>(p)] =
            satAdd(costs[static_cast<std::size_t>(p)],
                   chargedMove(model, prev, p, recovered));
      }
      const CenterList list(costs);
      const ProcId p = list.firstAvailable(occupancy);
      if (p == kNoProc) {
        if (!list.hasFeasible()) {
          throw UnreachableError(
              "repairSchedule: no feasible center for datum " +
              std::to_string(d) + " in window " + std::to_string(w) +
              " on faulted mesh");
        }
        throw std::runtime_error(
            "repairSchedule: capacity infeasible in window " +
            std::to_string(w));
      }
      occupancy.tryPlace(p);
      if (p != result.schedule.center(d, w)) {
        ++result.cellsRepaired;
        repaired[static_cast<std::size_t>(d)] = 1;
      }
      bool recovered = false;
      result.migrationCost += chargedMove(model, prev, p, recovered);
      if (recovered) ++result.recoveredMigrations;
      result.schedule.setCenter(d, w, p);
    }
  }

  for (const char r : repaired) result.dataRepaired += r;
  result.suffixCost =
      repairSuffixCost(result.schedule, refs, model, options.faultWindow,
                       nullptr);
  PIMSCHED_COUNTER_ADD("repair.data_repaired", result.dataRepaired);
  PIMSCHED_COUNTER_ADD("repair.cells_repaired", result.cellsRepaired);
  PIMSCHED_COUNTER_ADD("repair.recovered_migrations",
                       result.recoveredMigrations);
  return result;
}

Cost repairSuffixCost(const DataSchedule& schedule, const WindowedRefs& refs,
                      const CostModel& model, WindowId fromWindow,
                      std::int64_t* recoveredOut) {
  if (fromWindow < 0 || fromWindow > schedule.numWindows()) {
    throw std::invalid_argument("repairSuffixCost: fromWindow out of range");
  }
  Cost total = 0;
  std::int64_t recoveredCount = 0;
  for (DataId d = 0; d < schedule.numData(); ++d) {
    for (WindowId w = fromWindow; w < schedule.numWindows(); ++w) {
      const ProcId p = schedule.center(d, w);
      total = satAdd(total, model.serveCost(refs.refs(d, w), p));
      if (w > 0) {
        bool recovered = false;
        total = satAdd(total,
                       chargedMove(model, schedule.center(d, w - 1), p,
                                   recovered));
        if (recovered) ++recoveredCount;
      }
    }
  }
  if (recoveredOut != nullptr) *recoveredOut = recoveredCount;
  return total;
}

}  // namespace pimsched
