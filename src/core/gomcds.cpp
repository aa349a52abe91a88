#include "core/gomcds.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/data_order.hpp"
#include "core/gomcds_detail.hpp"
#include "cost/cost_cache.hpp"
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

bool SlotLedger::fits(const LayeredPath& path) const {
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    if (!occupancy_[w].hasRoom(static_cast<ProcId>(path.nodes[w]))) {
      return false;
    }
  }
  return true;
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
  LayeredDagScratch dag;  ///< dp + relaxed layers of the solver kernels
  LayeredPath path;       ///< reused per-datum solution
  CostBuffer serve;       ///< flat W x P node-cost table fed to the solver
};

/// Flat W x P serving-cost tables per equivalence class. Tables of shared
/// classes (>= 2 members) are built once and retained; singleton classes
/// are materialized into caller scratch so an all-distinct trace never
/// retains per-datum tables.
class ClassServeTables {
 public:
  ClassServeTables(const WindowedRefs& refs, const CostModel& model,
                   const DedupClasses& classes)
      : refs_(&refs),
        classes_(&classes),
        cache_(model),
        tables_(classes.rep.size()) {}

  /// Serving-cost table of class `cls`. Shared classes build lazily into
  /// their retained slot; singletons build into `scratch`.
  std::span<const Cost> table(int cls, GomcdsScratch& scratch) {
    if (classes_->size[static_cast<std::size_t>(cls)] > 1) {
      std::vector<Cost>& t = tables_[static_cast<std::size_t>(cls)];
      if (t.empty()) buildInto(cls, t);
      return t;
    }
    buildInto(cls, scratch.serve);
    return scratch.serve;
  }

  /// Writes class `cls`'s table with every full slot forbidden into
  /// scratch.serve (the forbidden mask applied through the dispatched SIMD
  /// kernel; a singleton's table is masked in place).
  void masked(int cls, const std::vector<char>& full, GomcdsScratch& scratch) {
    const std::span<const Cost> serve = table(cls, scratch);
    if (serve.data() != scratch.serve.data()) {
      scratch.serve.resize(serve.size());
      std::copy(serve.begin(), serve.end(), scratch.serve.begin());
    }
    simd::active().maskInf(reinterpret_cast<const unsigned char*>(full.data()),
                           scratch.serve.data(), full.size());
  }

  /// Builds every shared-class table upfront (the parallel planner reads
  /// them concurrently, so they must not build lazily there).
  void buildShared(unsigned threads) {
    std::vector<int> shared;
    for (std::size_t c = 0; c < tables_.size(); ++c) {
      if (classes_->size[c] > 1) shared.push_back(static_cast<int>(c));
    }
    parallelFor(static_cast<std::int64_t>(shared.size()), threads,
                [&](std::int64_t k) {
                  const int cls = shared[static_cast<std::size_t>(k)];
                  buildInto(cls, tables_[static_cast<std::size_t>(cls)]);
                });
  }

 private:
  /// Fills the flat W x P table, each window row written in place by the
  /// cost cache (span overload) — no per-row staging copy.
  template <typename Buffer>
  void buildInto(int cls, Buffer& out) {
    const DataId d = classes_->rep[static_cast<std::size_t>(cls)];
    const int W = refs_->numWindows();
    const std::size_t p = static_cast<std::size_t>(refs_->numProcs());
    out.resize(static_cast<std::size_t>(W) * p);
    for (WindowId w = 0; w < W; ++w) {
      cache_.costsInto(
          refs_->refs(d, w),
          std::span<Cost>(out.data() + static_cast<std::size_t>(w) * p, p));
    }
  }

  const WindowedRefs* refs_;
  const DedupClasses* classes_;
  CenterCostCache cache_;
  std::vector<std::vector<Cost>> tables_;
};

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
  const std::size_t n = order.size();

  const bool useChamfer =
      engine == GomcdsEngine::kChamfer && !model.faultAware();
  std::vector<Cost> trans;
  if (!useChamfer) detail::buildTransTable(model, trans);

  const DedupClasses classes = detail::computeDedupClasses(refs);
  ClassServeTables tables(refs, model, classes);
  const bool staticMask = detail::staticForbiddenSet(model, options);
  detail::SlotLedger ledger(model, options.capacity, W, !staticMask);
  const auto classOf = [&](DataId d) {
    return classes.classOf[static_cast<std::size_t>(d)];
  };

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
    // The forbidden set never changes, so every member of a class takes the
    // same path and plans cannot conflict: one solve per class, fanned out
    // over the pool, then a single commit pass in visit order.
    if (threads != 1) PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
    std::vector<LayeredPath> classPaths(classes.rep.size());
    parallelFor(static_cast<std::int64_t>(classPaths.size()), threads,
                [&](std::int64_t k) {
                  GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
                  solveInto(tables.table(static_cast<int>(k), scratch),
                            scratch, classPaths[static_cast<std::size_t>(k)]);
                });
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                         static_cast<std::int64_t>(classPaths.size()));
    for (const DataId d : order) {
      ledger.commit(d, classPaths[static_cast<std::size_t>(classOf(d))],
                    schedule);
    }
  } else if (threads == 1) {
    // Capacity pressure, one thread: the mask grows between data, so each
    // datum gets its own masked solve (reusing the class serve table).
    GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
    for (const DataId d : order) {
      tables.masked(classOf(d), ledger.full(), scratch);
      solveInto(scratch.serve, scratch, scratch.path);
      ledger.commit(d, scratch.path, schedule);
    }
    PIMSCHED_COUNTER_ADD("gomcds.flat.solves", static_cast<std::int64_t>(n));
  } else {
    // Capacity pressure, plan/commit rounds. plans[i] is the solution for
    // order[i]; planned[i] marks it current (solved against a snapshot no
    // newer placement invalidated).
    tables.buildShared(threads);
    std::vector<LayeredPath> plans(n);
    std::vector<char> planned(n, 0);
    std::vector<std::size_t> toSolve;
    toSolve.reserve(n);
    std::size_t committed = 0;  // order[0..committed) are placed
    while (committed < n) {
      PIMSCHED_COUNTER_ADD("sched.gomcds.rounds", 1);
      // Plan phase: solve every pending datum without a current plan
      // against the read-only full[] snapshot. Pure per-datum work — safe
      // to fan out; shared-class serve tables were prebuilt above.
      toSolve.clear();
      for (std::size_t i = committed; i < n; ++i) {
        if (!planned[i]) toSolve.push_back(i);
      }
      parallelFor(static_cast<std::int64_t>(toSolve.size()), threads,
                  [&](std::int64_t k) {
                    const std::size_t i = toSolve[static_cast<std::size_t>(k)];
                    GomcdsScratch& scratch = workerScratch<GomcdsScratch>();
                    tables.masked(classOf(order[i]), ledger.full(), scratch);
                    solveInto(scratch.serve, scratch, plans[i]);
                  });
      // Marking plans current happens after the barrier: workers writing
      // adjacent planned[] bytes from different cores would false-share
      // the line for no benefit — every datum in toSolve was solved.
      for (const std::size_t i : toSolve) planned[i] = 1;
      PIMSCHED_COUNTER_ADD("gomcds.flat.solves",
                           static_cast<std::int64_t>(toSolve.size()));

      // Commit phase: sequential, in visit order — the deterministic
      // tie-break that makes the result thread-count independent. Stops at
      // the first datum whose plan lost a slot to a commit it did not see.
      // A plan infeasible against any snapshot stays infeasible under the
      // only-growing occupancy, so commit() throws exactly where the
      // sequential loop would.
      std::size_t i = committed;
      for (; i < n; ++i) {
        if (plans[i].feasible() && !ledger.fits(plans[i])) break;
        ledger.commit(order[i], plans[i], schedule);
      }
      if (i < n) {
        // Conflict: keep still-fitting plans (they remain optimal under the
        // grown forbidden set), re-solve only the invalidated ones.
        // Infeasible plans stay planned and throw when the pass reaches
        // them.
        PIMSCHED_COUNTER_ADD("sched.gomcds.conflicts", 1);
        for (std::size_t j = i; j < n; ++j) {
          if (planned[j] && plans[j].feasible() && !ledger.fits(plans[j])) {
            planned[j] = 0;
          }
        }
      }
      committed = i;
    }
  }
  PIMSCHED_COUNTER_ADD("sched.gomcds.data",
                       static_cast<std::int64_t>(refs.numData()));
  return schedule;
}

}  // namespace pimsched
