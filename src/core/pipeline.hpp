#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/grouping.hpp"
#include "core/incremental.hpp"
#include "core/lomcds.hpp"
#include "core/repair.hpp"
#include "core/scds.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "trace/trace_io.hpp"
#include "trace/window.hpp"

namespace pimsched {

/// Every scheduling method the experiments compare.
enum class Method {
  kRowWise,         ///< the paper's "straight-forward" S.F. column
  kColWise,
  kBlock2D,
  kCyclic2D,
  kRandom,
  kScds,
  kLomcds,
  kGomcds,
  kGroupedLomcds,   ///< Algorithm 3 (greedy) on LOMCDS centers — Table 2
  kGroupedGomcds,   ///< Algorithm 3 groups + GOMCDS DP over groups — Table 2's GOMCDS column
  kGroupedOptimal,  ///< optimal-DP grouping ablation
};

[[nodiscard]] std::string toString(Method m);

/// Inverse of the CLI/protocol method spelling: rowwise|colwise|block|
/// cyclic|random|scds|lomcds|gomcds|grouped|groupedgomcds|groupedoptimal.
/// nullopt on anything else. (Shared by pimsched_cli and the serving
/// protocol so both accept the same vocabulary.)
[[nodiscard]] std::optional<Method> methodFromString(const std::string& name);

/// Knobs of one experiment run.
struct PipelineConfig {
  /// Number of execution windows the step sequence is split into
  /// (WindowPartition::evenCount); clamped to the step count. Ignored
  /// when explicitWindows is set.
  int numWindows = 8;

  /// Use these window boundaries verbatim (e.g. from adaptiveWindows)
  /// instead of an even split.
  std::optional<WindowPartition> explicitWindows;

  /// Per-processor capacity: kPaperCapacity applies the paper's "twice the
  /// minimum" rule, kUnlimited disables the constraint, any value >= 0 is
  /// used verbatim.
  static constexpr std::int64_t kPaperCapacity = -2;
  static constexpr std::int64_t kUnlimited = -1;
  std::int64_t capacity = kPaperCapacity;

  CostParams costParams = {};

  /// Data are scheduled heaviest-first by default: the paper's Algorithm 1
  /// visits "each data i" in an unspecified order, and letting data with
  /// the most reference traffic claim their optimal centers first is the
  /// natural processor-list behaviour under memory contention (ablated in
  /// bench/grouping_ablation).
  DataOrder order = DataOrder::kByWeightDesc;

  /// Worker threads for the parallel paths (GOMCDS per-class solves under
  /// a static forbidden set, schedule evaluation): 1 = sequential
  /// (default), 0 = hardware concurrency, N = at most N concurrent
  /// workers. Results are identical for every value.
  unsigned threads = 1;
};

/// Binds a trace to a grid + config and runs any Method on it. Windowing,
/// reference aggregation and capacity resolution happen once in the
/// constructor; schedules and costs are computed per call. The constructor
/// throws std::invalid_argument when the trace's total weight and the cost
/// parameters could push a path cost to kInfiniteCost.
///
/// The fault-aware constructor layers a FaultMap over the grid: references
/// issued by dead processors are dropped (dead processors make no
/// requests), all costs use fault-aware hop distances, the paper-capacity
/// rule counts only alive processors, and the scheduling methods refuse
/// dead centers. With an empty FaultMap every result is bit-identical to
/// the fault-oblivious constructor.
class Experiment {
 public:
  Experiment(const ReferenceTrace& trace, const Grid& grid,
             PipelineConfig config = {});

  /// Fault-aware experiment. `faults` must be built over `grid`, and
  /// `grid` must outlive the experiment (the fault state is copied).
  Experiment(const ReferenceTrace& trace, const Grid& grid,
             const FaultMap& faults, PipelineConfig config = {});

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] const Grid& grid() const { return *grid_; }
  [[nodiscard]] const WindowedRefs& refs() const { return refs_; }
  [[nodiscard]] const WindowPartition& windows() const { return windows_; }
  [[nodiscard]] const CostModel& costModel() const { return model_; }
  [[nodiscard]] const DataSpace& dataSpace() const { return *space_; }
  /// Resolved per-processor capacity (>= 0, or -1 for unlimited).
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  /// The fault state, or nullptr for a fault-oblivious experiment.
  [[nodiscard]] const FaultMap* faults() const {
    return faults_.has_value() ? &*faults_ : nullptr;
  }

  /// Builds the schedule a method produces.
  [[nodiscard]] DataSchedule schedule(Method m) const;

  /// Schedule + evaluation in one step.
  [[nodiscard]] EvalResult evaluate(Method m) const;

 private:
  const DataSpace* space_;
  const Grid* grid_;
  PipelineConfig config_;
  WindowPartition windows_;
  std::optional<FaultMap> faults_;        ///< owned copy of the fault state
  std::optional<DistanceMap> distances_;  ///< built over faults_
  WindowedRefs refs_;
  CostModel model_;  ///< points at distances_ when fault-aware
  std::int64_t capacity_;
};

/// Result of one StreamSession step: the schedule of the submitted trace
/// revision, its evaluation, and how much solver state the warm path
/// reused.
struct StreamStepResult {
  DataSchedule schedule;
  EvalResult eval;
  bool incremental = false;        ///< warm-start path reused retained state
  std::int64_t reusedLayers = 0;   ///< per-class dp rows reused verbatim
  std::int64_t relaxedLayers = 0;  ///< per-class dp rows re-relaxed
};

/// Result of StreamSession::repairLast: the repaired previous schedule plus
/// its evaluation under the post-drift model.
struct StreamRepairResult {
  RepairResult repair;
  EvalResult eval;
};

/// A long-lived scheduling session over an evolving trace — the streaming
/// window API of the pipeline. Where an Experiment binds one immutable
/// trace, a StreamSession persists the grid, fault state, distance map,
/// and an IncrementalSolver across successive trace revisions: each step()
/// re-solves the full problem, but the solver reuses every per-class dp
/// row up to the first changed window, so steady-state steps whose traces
/// evolve only at the tail cost a fraction of a cold solve. Results are
/// bit-identical to a fresh Experiment::schedule on every step.
///
/// Fault drift and trace drift flow through the same entry point:
/// applyDrift mutates the session's fault state, rebuilds distances,
/// and epoch-invalidates the warm solver state (the next step runs cold
/// under the new model); repairLast additionally runs core/repair over the
/// last emitted schedule so serving callers can hand back a prefix-
/// preserving repaired schedule without waiting for the next trace
/// revision.
///
/// Not thread-safe: one StreamSession per stream, externally serialized.
class StreamSession {
 public:
  /// `faultSpecs` seed the session's fault state (applyFaultSpec syntax);
  /// an empty list starts a fault-oblivious session, which turns fault-
  /// aware on the first applyDrift.
  StreamSession(int gridRows, int gridCols, PipelineConfig config = {},
                Method method = Method::kGomcds,
                const std::vector<std::string>& faultSpecs = {});

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Schedules the next revision of the evolving trace. Method kGomcds
  /// runs through the retained IncrementalSolver; every other method cold-
  /// solves via a per-step Experiment (supported, never warm). Rejects the
  /// same out-of-range costs as Experiment.
  [[nodiscard]] StreamStepResult step(const ReferenceTrace& trace);

  /// Applies fault drift: `heal` first resets the fault state, then every
  /// spec is applied in order (applyFaultSpec syntax; throws
  /// std::invalid_argument on a bad spec, leaving already-applied specs in
  /// place like the fleet's drift path). Rebuilds distances, marks the
  /// session fault-aware, and epoch-invalidates all warm solver state.
  void applyDrift(const std::vector<std::string>& specs, bool heal);

  /// True once step() has produced a schedule repairLast can start from.
  [[nodiscard]] bool hasSchedule() const { return lastSchedule_.has_value(); }

  /// Repairs the last emitted schedule under the current (post-drift)
  /// fault state: windows before `faultWindow` are preserved bit-identical,
  /// later cells are re-centered only where faults broke them. The repaired
  /// schedule replaces the retained one. Throws std::logic_error when no
  /// schedule has been emitted yet.
  [[nodiscard]] StreamRepairResult repairLast(WindowId faultWindow = 0);

  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] const FaultMap& faults() const { return faults_; }
  [[nodiscard]] bool faultAware() const { return faultAware_; }
  [[nodiscard]] Method method() const { return method_; }
  [[nodiscard]] std::int64_t steps() const { return steps_; }
  /// Bumped by every applyDrift — serving layers surface this so clients
  /// can see warm state was invalidated.
  [[nodiscard]] std::uint64_t driftEpoch() const { return driftEpoch_; }
  /// Bytes of warm solver state retained between steps.
  [[nodiscard]] std::size_t retainedBytes() const {
    return solver_.retainedBytes();
  }

 private:
  Grid grid_;
  PipelineConfig config_;
  Method method_;
  FaultMap faults_;  ///< built over grid_; empty until specs/drift arrive
  bool faultAware_ = false;
  std::optional<DistanceMap> distances_;  ///< rebuilt on every drift
  IncrementalSolver solver_;
  std::optional<DataSchedule> lastSchedule_;
  std::optional<WindowedRefs> lastBaseRefs_;  ///< unmasked refs of last step
  std::int64_t lastCapacity_ = -1;
  std::int64_t steps_ = 0;
  std::uint64_t driftEpoch_ = 0;
};

/// Percentage improvement of `cost` over `base` (the paper's "%"
/// columns): 100 * (base - cost) / base. Returns 0 when base is 0.
[[nodiscard]] double improvementPct(Cost base, Cost cost);

/// Canonical digest of every config field that can change a schedule or
/// its cost: windowing (explicit boundaries when set, else numWindows),
/// capacity sentinel/value, cost params and data order. `threads` is
/// deliberately excluded — results are bit-identical for every thread
/// count, so thread count must not split the serving result cache.
/// Byte stream (DigestBuilder rules): str("pimconfig"), u64(0|1) for
/// explicitWindows, then either i64(numSteps) + u64(numWindows) +
/// i64(each window start) or i64(numWindows); then i64(capacity),
/// i64(hopCost), i64(moveVolume), i64(order).
[[nodiscard]] Digest configDigest(const PipelineConfig& config);

}  // namespace pimsched
