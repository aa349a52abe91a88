#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/gomcds.hpp"
#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/center_costs.hpp"
#include "cost/cost_model.hpp"
#include "graph/layered_dag.hpp"
#include "trace/windowed_refs.hpp"
#include "util/aligned.hpp"

namespace pimsched {

namespace detail {

/// Core of the incremental change detector, parameterized on the signature
/// prescreen and the authoritative row comparison. Returns the first window
/// w where either the per-window FNV-1a signatures differ or — signatures
/// equal — the full row comparison disagrees (an FNV collision, which must
/// still be detected as "changed"); numWindows when every window matches.
/// Exposed as a template seam for the collision regression test: genuine
/// 64-bit FNV-1a collisions are computationally infeasible to craft, so the
/// test injects forced-equal signatures against the real comparator and
/// exercises the exact production code path.
template <class SigEqFn, class RowEqFn>
int firstChangedWindowImpl(int numWindows, const SigEqFn& sigEqual,
                           const RowEqFn& rowEqual) {
  for (int w = 0; w < numWindows; ++w) {
    if (!sigEqual(w)) return w;
    if (!rowEqual(w)) return w;  // signature collision — full compare decides
  }
  return numWindows;
}

}  // namespace detail

/// First window where datum d's reference string differs between `now` and
/// `prev` (same datum-id domain): per-window signature prescreen, full
/// compare on signature match to rule out collisions. Returns numWindows
/// when the datum's refs are identical in every window, and 0 when the
/// shapes disagree (nothing can be reused).
[[nodiscard]] int firstChangedWindow(const WindowedRefs& now,
                                     const WindowedRefs& prev, DataId d);

/// Warm-start GOMCDS solver for long-running streams whose traces evolve at
/// the tail. Each solve() retains the per-equivalence-class serving-cost
/// tables, dp tables, predecessor caches, and solved paths; the next
/// solve() detects the first changed window per datum (direct row
/// comparison — authoritative, and in the CSR layout cheaper than
/// recomputing either side's signature), reuses the retained prefix rows
/// untouched, and re-relaxes only the changed suffix through the same
/// SIMD-dispatched kernels. The shared beta x distance transition
/// table of the faulted engine is retained across solves as well.
///
/// Warm solves also skip the full reference-string rehash of the cold
/// dedup classing: the new partition is derived from the previous one by
/// subdividing each retained class on (first changed window, changed
/// suffix) — suffix FNV-1a signatures prescreen, a full suffix comparison
/// confirms on match, the same collision discipline as the cold classing.
/// The result is a *refinement* of the cold partition (classes may split
/// when members' suffixes diverge, and two classes whose contents converge
/// are not re-merged until the next cold solve). Refinement is sound here
/// because classes only share work: under the static forbidden set every
/// datum's path is a deterministic function of its own reference string,
/// so a split costs duplicate solves but cannot change any schedule cell.
///
/// The result is bit-identical to scheduleGomcds(refs, model, options,
/// engine) on every call — warm-start is purely a speed/memory trade. The
/// solver falls back to a cold solve (counter gomcds.incremental.cold_falls)
/// whenever reuse would be unsound or unprofitable: no retained state, a
/// changed model/options/shape fingerprint, or a capacity-constrained solve
/// (the forbidden set then grows per datum, so per-class paths cannot be
/// shared).
///
/// Not thread-safe: one IncrementalSolver per stream, externally
/// serialized. Memory: retains O(numClasses * numWindows * numProcs) costs
/// between solves — see retainedBytes().
class IncrementalSolver {
 public:
  struct Stats {
    std::int64_t reusedLayers = 0;   ///< per-class dp rows reused verbatim
    std::int64_t relaxedLayers = 0;  ///< per-class dp rows re-relaxed
    bool cold = true;                ///< this solve ran without warm state
  };

  IncrementalSolver() = default;

  /// Drop-in replacement for scheduleGomcds with state retention.
  [[nodiscard]] DataSchedule solve(const WindowedRefs& refs,
                                   const CostModel& model,
                                   const SchedulerOptions& options = {},
                                   GomcdsEngine engine = GomcdsEngine::kChamfer);

  /// Stats of the most recent solve().
  [[nodiscard]] const Stats& lastStats() const { return stats_; }

  /// Epoch invalidation: drops all retained state so the next solve runs
  /// cold. Streaming callers invoke this on fault drift; the solver also
  /// detects model changes itself via a content fingerprint, so this is a
  /// belt-and-braces fast path, not the only line of defense.
  void invalidate();

  /// Bytes held by retained cost tables and paths (shared class states
  /// counted once).
  [[nodiscard]] std::size_t retainedBytes() const;

 private:
  /// Retained per-equivalence-class solve state. shared_ptr because a class
  /// whose refs are fully unchanged keeps sharing the previous generation's
  /// state with zero copying.
  struct ClassState {
    CostBuffer serve;  ///< flat W x P serving-cost table
    CostBuffer dp;     ///< flat W x P dp table of the layered DAG
    LayeredParentCache parents;  ///< memoized predecessor scans for `dp`
    LayeredPath path;  ///< solved path (static forbidden set only)
  };

  DataSchedule coldFall(const WindowedRefs& refs, const CostModel& model,
                        const SchedulerOptions& options, GomcdsEngine engine);

  Stats stats_;
  bool retainedValid_ = false;
  std::uint64_t fingerprint_ = 0;
  std::optional<WindowedRefs> prevRefs_;
  std::vector<int> prevClassOf_;  ///< datum -> previous class index
  std::vector<std::shared_ptr<ClassState>> prevStates_;
  std::vector<Cost> trans_;  ///< retained transition table (naive engine)
  bool transValid_ = false;
  LayeredDagScratch scratch_;
  CenterCostScratch costScratch_;  ///< histograms of the serve-row rebuilds
};

}  // namespace pimsched
