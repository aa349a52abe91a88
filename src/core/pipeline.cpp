#include "core/pipeline.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault_trace.hpp"
#include "obs/obs.hpp"
#include "pim/memory.hpp"

namespace pimsched {

std::string toString(Method m) {
  switch (m) {
    case Method::kRowWise: return "S.F.(row-wise)";
    case Method::kColWise: return "col-wise";
    case Method::kBlock2D: return "block-2d";
    case Method::kCyclic2D: return "cyclic-2d";
    case Method::kRandom: return "random";
    case Method::kScds: return "SCDS";
    case Method::kLomcds: return "LOMCDS";
    case Method::kGomcds: return "GOMCDS";
    case Method::kGroupedLomcds: return "LOMCDS+group";
    case Method::kGroupedGomcds: return "GOMCDS+group";
    case Method::kGroupedOptimal: return "LOMCDS+group*";
  }
  return "unknown";
}

std::optional<Method> methodFromString(const std::string& name) {
  if (name == "rowwise") return Method::kRowWise;
  if (name == "colwise") return Method::kColWise;
  if (name == "block") return Method::kBlock2D;
  if (name == "cyclic") return Method::kCyclic2D;
  if (name == "random") return Method::kRandom;
  if (name == "scds") return Method::kScds;
  if (name == "lomcds") return Method::kLomcds;
  if (name == "gomcds") return Method::kGomcds;
  if (name == "grouped") return Method::kGroupedLomcds;
  if (name == "groupedgomcds") return Method::kGroupedGomcds;
  if (name == "groupedoptimal") return Method::kGroupedOptimal;
  return std::nullopt;
}

Digest configDigest(const PipelineConfig& config) {
  DigestBuilder b;
  b.str("pimconfig");
  if (config.explicitWindows.has_value()) {
    const WindowPartition& p = *config.explicitWindows;
    b.u64(1);
    b.i64(p.numSteps());
    b.u64(static_cast<std::uint64_t>(p.numWindows()));
    for (WindowId w = 0; w < p.numWindows(); ++w) b.i64(p.window(w).begin);
  } else {
    b.u64(0);
    b.i64(config.numWindows);
  }
  b.i64(config.capacity);
  b.i64(config.costParams.hopCost);
  b.i64(config.costParams.moveVolume);
  b.i64(static_cast<std::int64_t>(config.order));
  return b.digest();
}

namespace {

void resolveCapacity(std::int64_t& capacity, std::int64_t numData,
                     std::int64_t procs) {
  if (capacity == PipelineConfig::kPaperCapacity) {
    // The paper's "twice the minimum" rule; over a faulted mesh the
    // minimum counts only alive processors.
    capacity = 2 * ((numData + procs - 1) / procs);
  } else if (capacity == PipelineConfig::kUnlimited) {
    capacity = -1;
  } else if (capacity < 0) {
    throw std::invalid_argument("Experiment: invalid capacity sentinel");
  }
}

/// a * b, or kInfiniteCost when the product reaches it or overflows.
Cost cappedMul(Cost a, Cost b) {
  Cost p = 0;
  if (__builtin_mul_overflow(a, b, &p) || p >= kInfiniteCost) {
    return kInfiniteCost;
  }
  return p;
}

/// Enforces the solver's cost contract (graph/layered_dag.hpp: every
/// finite path sum stays below kInfiniteCost) on the inputs. A datum's path
/// costs at most its reference weight x maxHopDistance x hopCost in serving
/// plus one maxHopDistance x beta move per window, and the trace's total
/// weight bounds every datum's. The trace loader only bounds that total by
/// INT64_MAX, so without this check a huge weight would overflow
/// `weight x distance` in the serving-cost tables.
void checkCostRange(const ReferenceTrace& trace, const CostModel& model,
                    int numWindows, const char* who) {
  const CostParams& params = model.params();
  const Cost dist = model.maxHopDistance();
  const Cost serve =
      cappedMul(cappedMul(trace.totalWeight(), dist), params.hopCost);
  const Cost move =
      cappedMul(cappedMul(numWindows, dist),
                cappedMul(params.hopCost, params.moveVolume));
  Cost bound = 0;
  if (__builtin_add_overflow(serve, move, &bound) || bound >= kInfiniteCost) {
    throw std::invalid_argument(
        std::string(who) +
        ": costs out of range (total reference weight " +
        std::to_string(trace.totalWeight()) + ", max distance " +
        std::to_string(dist) + ", hop cost " + std::to_string(params.hopCost) +
        ", move volume " + std::to_string(params.moveVolume) + ", " +
        std::to_string(numWindows) +
        " windows): a path cost could reach the infinite-cost sentinel");
  }
}

const FaultMap& checkFaultGrid(const FaultMap& faults, const Grid& grid) {
  if (&faults.grid() != &grid) {
    throw std::invalid_argument(
        "Experiment: FaultMap built over a different grid");
  }
  return faults;
}

}  // namespace

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       PipelineConfig config)
    : space_(&trace.dataSpace()),
      grid_(&grid),
      config_(config),
      windows_(config.explicitWindows.has_value()
                   ? *config.explicitWindows
                   : WindowPartition::evenCount(trace.numSteps(),
                                                config.numWindows)),
      refs_(trace, windows_, grid),
      model_(grid, config.costParams),
      capacity_(config.capacity) {
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "Experiment: trace has no steps (nothing to schedule)");
  }
  resolveCapacity(capacity_, trace.numData(), grid.size());
  checkCostRange(trace, model_, refs_.numWindows(), "Experiment");
}

Experiment::Experiment(const ReferenceTrace& trace, const Grid& grid,
                       const FaultMap& faults, PipelineConfig config)
    : space_(&trace.dataSpace()),
      grid_(&grid),
      config_(config),
      windows_(config.explicitWindows.has_value()
                   ? *config.explicitWindows
                   : WindowPartition::evenCount(trace.numSteps(),
                                                config.numWindows)),
      faults_(checkFaultGrid(faults, grid)),
      distances_(std::in_place, grid, *faults_),
      refs_(WindowedRefs(trace, windows_, grid)
                .withProcsMasked(faults_->deadProcMask())),
      model_(grid, *distances_, config.costParams),
      capacity_(config.capacity) {
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "Experiment: trace has no steps (nothing to schedule)");
  }
  if (faults_->aliveProcCount() == 0) {
    throw UnreachableError("Experiment: every processor is dead (" +
                           faults_->summary() + ")");
  }
  resolveCapacity(capacity_, trace.numData(), faults_->aliveProcCount());
  checkCostRange(trace, model_, refs_.numWindows(), "Experiment");
}

DataSchedule Experiment::schedule(Method m) const {
  const SchedulerOptions opts{capacity_, config_.order};
  switch (m) {
    case Method::kRowWise:
      return baselineSchedule(BaselineKind::kRowWise, *space_, *grid_,
                              refs_.numWindows());
    case Method::kColWise:
      return baselineSchedule(BaselineKind::kColWise, *space_, *grid_,
                              refs_.numWindows());
    case Method::kBlock2D:
      return baselineSchedule(BaselineKind::kBlock2D, *space_, *grid_,
                              refs_.numWindows());
    case Method::kCyclic2D:
      return baselineSchedule(BaselineKind::kCyclic2D, *space_, *grid_,
                              refs_.numWindows());
    case Method::kRandom:
      return baselineSchedule(BaselineKind::kRandom, *space_, *grid_,
                              refs_.numWindows());
    case Method::kScds:
      return scheduleScds(refs_, model_, opts);
    case Method::kLomcds:
      return scheduleLomcds(refs_, model_, opts);
    case Method::kGomcds:
      return scheduleGomcds(refs_, model_, opts, GomcdsEngine::kChamfer,
                            config_.threads);
    case Method::kGroupedLomcds:
      return scheduleGroupedLomcds(refs_, model_, opts,
                                   GroupingMethod::kGreedy);
    case Method::kGroupedGomcds:
      return scheduleGroupedGomcds(refs_, model_, opts);
    case Method::kGroupedOptimal:
      return scheduleGroupedLomcds(refs_, model_, opts,
                                   GroupingMethod::kOptimalDp);
  }
  throw std::invalid_argument("Experiment::schedule: unknown method");
}

EvalResult Experiment::evaluate(Method m) const {
  return evaluateSchedule(schedule(m), refs_, model_, config_.threads);
}

StreamSession::StreamSession(int gridRows, int gridCols,
                             PipelineConfig config, Method method,
                             const std::vector<std::string>& faultSpecs)
    : grid_(gridRows, gridCols),
      config_(config),
      method_(method),
      faults_(grid_) {
  if (!faultSpecs.empty()) {
    for (const std::string& spec : faultSpecs) {
      if (!applyFaultSpec(faults_, spec)) {
        throw std::invalid_argument("StreamSession: bad fault spec \"" +
                                    spec + "\"");
      }
    }
    faultAware_ = true;
    distances_.emplace(grid_, faults_);
  }
}

StreamStepResult StreamSession::step(const ReferenceTrace& trace) {
  PIMSCHED_SCOPED_TIMER("stream.step");
  if (trace.numSteps() == 0) {
    throw std::invalid_argument(
        "StreamSession: trace has no steps (nothing to schedule)");
  }
  if (faultAware_ && faults_.aliveProcCount() == 0) {
    throw UnreachableError("StreamSession: every processor is dead (" +
                           faults_.summary() + ")");
  }
  const WindowPartition windows =
      config_.explicitWindows.has_value()
          ? *config_.explicitWindows
          : WindowPartition::evenCount(trace.numSteps(), config_.numWindows);
  WindowedRefs baseRefs(trace, windows, grid_);
  const WindowedRefs refs =
      faultAware_ ? baseRefs.withProcsMasked(faults_.deadProcMask())
                  : baseRefs;
  const CostModel model =
      faultAware_ ? CostModel(grid_, *distances_, config_.costParams)
                  : CostModel(grid_, config_.costParams);
  checkCostRange(trace, model, refs.numWindows(), "StreamSession");
  std::int64_t capacity = config_.capacity;
  resolveCapacity(capacity, trace.numData(),
                  faultAware_ ? faults_.aliveProcCount() : grid_.size());

  const bool warmPath = method_ == Method::kGomcds;
  DataSchedule schedule = [&]() -> DataSchedule {
    if (warmPath) {
      // The warm path: identical to scheduleGomcds on every step, reusing
      // every dp row before the first changed window of each class.
      const SchedulerOptions opts{capacity, config_.order};
      return solver_.solve(refs, model, opts);
    }
    // Any other method is supported but never warm: one cold Experiment
    // per revision.
    PipelineConfig stepConfig = config_;
    stepConfig.capacity = capacity;
    return faultAware_
               ? Experiment(trace, grid_, faults_, stepConfig).schedule(method_)
               : Experiment(trace, grid_, stepConfig).schedule(method_);
  }();
  EvalResult eval = evaluateSchedule(schedule, refs, model, config_.threads);
  StreamStepResult out{std::move(schedule), std::move(eval)};
  if (warmPath) {
    const IncrementalSolver::Stats& stats = solver_.lastStats();
    out.incremental = !stats.cold;
    out.reusedLayers = stats.reusedLayers;
    out.relaxedLayers = stats.relaxedLayers;
  }

  lastSchedule_ = out.schedule;
  lastBaseRefs_ = std::move(baseRefs);
  lastCapacity_ = capacity;
  ++steps_;
  PIMSCHED_COUNTER_ADD("stream.steps", 1);
  if (out.incremental) PIMSCHED_COUNTER_ADD("stream.warm_steps", 1);
  return out;
}

void StreamSession::applyDrift(const std::vector<std::string>& specs,
                               bool heal) {
  if (heal) faults_.clear();
  for (const std::string& spec : specs) {
    if (!applyFaultSpec(faults_, spec)) {
      throw std::invalid_argument("StreamSession: bad fault spec \"" + spec +
                                  "\"");
    }
  }
  faultAware_ = true;
  distances_.emplace(grid_, faults_);
  // One epoch invalidation covers both the solver's warm state and any
  // caller-side warm assumptions (the fingerprint would catch the model
  // change anyway; dropping state now frees the memory immediately).
  solver_.invalidate();
  ++driftEpoch_;
  PIMSCHED_COUNTER_ADD("stream.drift", 1);
}

StreamRepairResult StreamSession::repairLast(WindowId faultWindow) {
  if (!lastSchedule_.has_value() || !lastBaseRefs_.has_value()) {
    throw std::logic_error("StreamSession: no schedule to repair yet");
  }
  if (!faultAware_) {
    // Repair under a fault-oblivious model is the identity; normalize
    // through an (empty) fault-aware model so the RepairResult fields are
    // meaningful either way.
    faultAware_ = true;
    distances_.emplace(grid_, faults_);
  }
  const WindowedRefs refs =
      lastBaseRefs_->withProcsMasked(faults_.deadProcMask());
  const CostModel model(grid_, *distances_, config_.costParams);
  RepairOptions options;
  options.faultWindow = faultWindow;
  options.capacity = lastCapacity_;
  StreamRepairResult out{repairSchedule(*lastSchedule_, refs, model, options),
                         {}};
  out.eval = evaluateSchedule(out.repair.schedule, refs, model,
                              config_.threads);
  lastSchedule_ = out.repair.schedule;
  PIMSCHED_COUNTER_ADD("stream.repairs", 1);
  return out;
}

double improvementPct(Cost base, Cost cost) {
  if (base == 0) return 0.0;
  return 100.0 * static_cast<double>(base - cost) /
         static_cast<double>(base);
}

}  // namespace pimsched
