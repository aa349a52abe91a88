#include "core/gomcds.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/data_order.hpp"
#include "core/gomcds_detail.hpp"
#include "cost/center_costs.hpp"
#include "fault/fault_map.hpp"
#include "graph/layered_dag.hpp"
#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"
#include "util/aligned.hpp"
#include "util/thread_pool.hpp"

namespace pimsched {

namespace detail {

bool staticForbiddenSet(const CostModel& model,
                        const SchedulerOptions& options) {
  if (options.capacity >= 0) return false;
  const FaultMap* faults = model.faults();
  if (!faults) return true;
  const int m = model.grid().size();
  for (ProcId p = 0; p < m; ++p) {
    if (faults->procAlive(p) && faults->capacityLimit(p) >= 0) return false;
  }
  return true;
}

DedupClasses computeDedupClasses(const WindowedRefs& refs) {
  const DataId n = refs.numData();
  // Signature buckets pre-screen; full row comparison against the class
  // representative confirms, so hash collisions cannot merge classes.
  DedupClasses out = buildEquivalenceClasses(
      n, [&](DataId d) { return refs.refsSignature(d); },
      [&](DataId rep, DataId d) { return refs.sameRefs(rep, d); });
  PIMSCHED_COUNTER_ADD("gomcds.dedup.classes",
                       static_cast<std::int64_t>(out.rep.size()));
  PIMSCHED_COUNTER_ADD("gomcds.dedup.data",
                       static_cast<std::int64_t>(n) -
                           static_cast<std::int64_t>(out.rep.size()));
  return out;
}

void buildTransTable(const CostModel& model, std::vector<Cost>& trans) {
  const int m = model.grid().size();
  trans.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  for (ProcId q = 0; q < m; ++q) {
    Cost* row = trans.data() +
                static_cast<std::size_t>(q) * static_cast<std::size_t>(m);
    for (ProcId p = 0; p < m; ++p) {
      row[static_cast<std::size_t>(p)] = model.moveCost(q, p);
    }
  }
  PIMSCHED_COUNTER_ADD("gomcds.trans_table.builds", 1);
}

SlotLedger::SlotLedger(const CostModel& model, std::int64_t capacity,
                       int numWindows, bool trackFull)
    : model_(&model),
      occupancy_(static_cast<std::size_t>(numWindows),
                 OccupancyMap(model.grid(), capacity)) {
  if (const FaultMap* faults = model.faults()) {
    for (OccupancyMap& occ : occupancy_) applyFaultCapacity(occ, *faults);
  }
  if (!trackFull) return;
  const std::size_t P = static_cast<std::size_t>(model.grid().size());
  full_.resize(occupancy_.size() * P);
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    for (std::size_t p = 0; p < P; ++p) {
      full_[w * P + p] = !occupancy_[w].hasRoom(static_cast<ProcId>(p));
    }
  }
}

void SlotLedger::commit(DataId d, const LayeredPath& path,
                        DataSchedule& schedule) {
  if (!path.feasible()) {
    // On a faulted mesh an infeasible cost-graph usually means the faults
    // severed every placement path (dead mesh, partition), which callers
    // handle differently from running out of slots.
    if (const FaultMap* faults = model_->faults()) {
      if (faults->aliveProcCount() == 0 || model_->distances().partitioned()) {
        throw UnreachableError(
            "scheduleGomcds: faulted mesh cannot host data (" +
            faults->summary() + ")");
      }
    }
    throw std::runtime_error(
        "scheduleGomcds: capacity infeasible (no placement path)");
  }
  const std::size_t P = static_cast<std::size_t>(model_->grid().size());
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    const auto p = static_cast<ProcId>(path.nodes[w]);
    OccupancyMap& occ = occupancy_[w];
    if (!occ.tryPlace(p)) {
      // Full slots are infinite node costs, so a path through one means
      // the solver and the ledger disagree — fail loudly instead of
      // corrupting the capacity accounting.
      throw std::logic_error(
          "scheduleGomcds: solver placed datum " + std::to_string(d) +
          " on full processor " + std::to_string(p) + " in window " +
          std::to_string(w) + " (used " + std::to_string(occ.used(p)) + "/" +
          std::to_string(occ.capacity()) + ")");
    }
    if (!full_.empty()) {
      full_[w * P + static_cast<std::size_t>(p)] = !occ.hasRoom(p);
    }
    schedule.setCenter(d, static_cast<WindowId>(w), p);
  }
}

}  // namespace detail

namespace {

using detail::DedupClasses;

/// Per-thread arena for the solve path: every buffer is grow-only, so
/// after the first datum on a thread the steady-state loop performs zero
/// heap allocations per datum.
struct GomcdsScratch {
  LayeredDagScratch dag;    ///< dp + relaxed layers of the solver kernels
  LayeredPath path;         ///< reused per-datum solution
  CostBuffer serve;         ///< flat W x P node-cost table fed to the solver
  CenterCostScratch costs;  ///< axis histograms of the serve-row builds
};

/// Writes datum d's flat W x P serving-cost table into scratch.serve, each
/// window row computed in place by separableCenterCostsInto.
void buildServeTable(const WindowedRefs& refs, const CostModel& model,
                     DataId d, GomcdsScratch& scratch) {
  const int W = refs.numWindows();
  const std::size_t p = static_cast<std::size_t>(refs.numProcs());
  scratch.serve.resize(static_cast<std::size_t>(W) * p);
  for (WindowId w = 0; w < W; ++w) {
    separableCenterCostsInto(
        model, refs.refs(d, w),
        std::span<Cost>(scratch.serve.data() + static_cast<std::size_t>(w) * p,
                        p),
        scratch.costs);
  }
}

}  // namespace

DataSchedule scheduleGomcds(const WindowedRefs& refs, const CostModel& model,
                            const SchedulerOptions& options,
                            GomcdsEngine engine, unsigned threads) {
  PIMSCHED_SCOPED_TIMER("sched.gomcds");
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const int P = grid.size();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  DataSchedule schedule(refs.numData(), W);
  const std::vector<DataId> order = dataVisitOrder(refs, options.order);

  const bool useChamfer =
      engine == GomcdsEngine::kChamfer && !model.faultAware();
  std::vector<Cost> trans;
  if (!useChamfer) detail::buildTransTable(model, trans);

  const bool staticMask = detail::staticForbiddenSet(model, options);
  detail::SlotLedger ledger(model, options.capacity, W, !staticMask);

  // gomcds.flat.solves is accounted in bulk per fan-out — a per-solve add
  // would have every worker hammering one counter cache line.
  const auto solveInto = [&](std::span<const Cost> nodeCosts,
                             GomcdsScratch& scratch, LayeredPath& out) {
    if (useChamfer) {
      LayeredDagSolver::solveManhattan(grid, W, nodeCosts, beta, 0,
                                       scratch.dag.dp, scratch.dag, out);
    } else {
      LayeredDagSolver::solveTable(W, P, nodeCosts, trans, 0, scratch.dag.dp,
                                   scratch.dag, out);
    }
  };

  if (staticMask) {
    // The forbidden set never changes, so every member of an equivalence
    // class takes the same path: one solve per class, fanned out over the
    // pool, then a single commit pass in visit order.
    const DedupClasses classes = detail::computeDedupClasses(refs);
    std::vector<LayeredPath> classPaths(classes.rep.size());
    parallelFor(static_cast<std::int64_t>(classPaths.size()), threads,
                [&](std::int64_t k) {
                  GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
                  buildServeTable(refs, model,
                                  classes.rep[static_cast<std::size_t>(k)],
                                  scratch);
                  solveInto(scratch.serve, scratch,
                            classPaths[static_cast<std::size_t>(k)]);
                });
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(classPaths.size()));
    for (const DataId d : order) {
      const int cls = classes.classOf[static_cast<std::size_t>(d)];
      ledger.commit(d, classPaths[static_cast<std::size_t>(cls)], schedule);
    }
  } else {
    // Capacity pressure: the forbidden mask grows between data, so each
    // datum gets its own masked solve, in visit order on the calling thread
    // at every thread count.
    GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
    const std::vector<char>& full = ledger.full();
    for (const DataId d : order) {
      buildServeTable(refs, model, d, scratch);
      simd::active().maskInf(
          reinterpret_cast<const unsigned char*>(full.data()),
          scratch.serve.data(), full.size());
      solveInto(scratch.serve, scratch, scratch.path);
      ledger.commit(d, scratch.path, schedule);
    }
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(order.size()));
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                       static_cast<std::int64_t>(refs.numData()));
  return schedule;
}

}  // namespace pimsched
