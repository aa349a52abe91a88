#pragma once

// Internal machinery shared by the cold GOMCDS driver (core/gomcds.cpp)
// and the incremental warm-start solver (core/incremental.cpp). Not part of
// the public scheduling API — include only from core/ implementation files
// and tests that need the injectable-signature seams.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "graph/layered_dag.hpp"
#include "pim/memory.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched::detail {

/// True when the forbidden (window, processor) set cannot change while data
/// are placed: capacity is unlimited and no *alive* processor carries a
/// fault capacity limit (dead processors are already forbidden through
/// their infinite serving cost). With a static forbidden set, data of the
/// same equivalence class share one solved path, not just cost tables.
[[nodiscard]] bool staticForbiddenSet(const CostModel& model,
                                      const SchedulerOptions& options);

/// Equivalence classes of data whose windowed reference strings are
/// byte-identical — they pose the same per-datum DAG subproblem, so the
/// serving-cost tables (and, under a static forbidden set, the solved
/// path) are computed once per class.
struct DedupClasses {
  std::vector<int> classOf;  ///< datum -> class index
  std::vector<DataId> rep;   ///< class -> representative (lowest-id) datum
  std::vector<int> size;     ///< class -> member count
};

/// Generic equivalence-class construction over n items. `sig(d)` is a
/// 64-bit prescreen signature bucketing candidates; `same(rep, d)` is the
/// authoritative full comparison run against each bucketed class
/// representative, so signature collisions can never merge distinct
/// classes. Exposed as a template seam: crafting genuine 64-bit FNV-1a
/// collisions is computationally infeasible, so the collision regression
/// test injects a forced-colliding `sig` against the real comparator and
/// exercises the exact production code path.
template <class SigFn, class SameFn>
DedupClasses buildEquivalenceClasses(DataId n, const SigFn& sig,
                                     const SameFn& same) {
  DedupClasses out;
  out.classOf.resize(static_cast<std::size_t>(n));
  std::unordered_map<std::uint64_t, std::vector<int>> bySig;
  for (DataId d = 0; d < n; ++d) {
    std::vector<int>& bucket = bySig[sig(d)];
    int cls = -1;
    for (const int c : bucket) {
      if (same(out.rep[static_cast<std::size_t>(c)], d)) {
        cls = c;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(out.rep.size());
      out.rep.push_back(d);
      out.size.push_back(0);
      bucket.push_back(cls);
    }
    out.classOf[static_cast<std::size_t>(d)] = cls;
    ++out.size[static_cast<std::size_t>(cls)];
  }
  return out;
}

/// The production class computation: FNV-1a whole-datum signatures
/// prescreen, WindowedRefs::sameRefs confirms. Emits the gomcds.dedup.*
/// counters.
[[nodiscard]] DedupClasses computeDedupClasses(const WindowedRefs& refs);

/// The shared beta * distance transition table of the faulted / naive
/// engines: trans[q * P + p] = model.moveCost(q, p), built once per
/// scheduling call and reused by every datum (fault distances can be
/// asymmetric, so rows are indexed by source).
void buildTransTable(const CostModel& model, std::vector<Cost>& trans);

/// Slot accounting of one scheduling call: per-window occupancy maps with
/// the capacity and every fault capacity limit applied, plus — when the
/// forbidden set is dynamic — full[], the flat W x P mask of slots with no
/// room left, laid out like the serve tables so the SIMD mask kernel can
/// apply it directly. commit() is the one place a solved path becomes
/// schedule cells.
class SlotLedger {
 public:
  SlotLedger(const CostModel& model, std::int64_t capacity, int numWindows,
             bool trackFull);

  /// Mask of full (window, processor) slots; empty unless tracked.
  [[nodiscard]] const std::vector<char>& full() const { return full_; }

  /// Places datum d along `path`: one slot per window, full[] kept in sync,
  /// the centers written into `schedule`. An infeasible path throws
  /// UnreachableError when faults severed every placement and
  /// std::runtime_error when capacity ran out; a path through a full slot
  /// (solver and ledger disagree) throws std::logic_error.
  void commit(DataId d, const LayeredPath& path, DataSchedule& schedule);

 private:
  const CostModel* model_;
  std::vector<OccupancyMap> occupancy_;
  std::vector<char> full_;
};

}  // namespace pimsched::detail
