#pragma once

#include "core/schedule.hpp"
#include "core/scheduler_options.hpp"
#include "cost/cost_model.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Which engine solves the per-datum shortest-path problem. Both produce
/// identical schedules; kChamfer exploits the Manhattan structure of the
/// movement cost to relax each layer in O(numProcs) instead of
/// O(numProcs^2). kNaive exists for the A2 ablation and as the literal
/// reading of the paper's cost-graph.
enum class GomcdsEngine { kChamfer, kNaive };

/// Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2): for
/// each datum, build the layered cost-graph — one node per (execution
/// window, processor), edge weight = movement cost between the processors
/// plus the serving cost of the next window — and take the shortest
/// source-to-destination path as the center sequence. Without capacity
/// pressure this minimises each datum's total (serving + movement) cost
/// exactly.
///
/// Capacity is handled in the spirit of the paper's processor list: data
/// are scheduled sequentially and a (window, processor) slot that is full
/// becomes a forbidden node for later data.
///
/// Serving-cost tables are computed row by row with separableCenterCostsInto
/// into per-thread scratch; none is retained across data. Under a static
/// forbidden set (no capacity pressure), data with byte-identical windowed
/// reference strings — common in matmul/LU traces — form one equivalence
/// class that shares one table and one solved path, and `threads` executors
/// (0 = hardware concurrency) solve the classes on the shared ThreadPool
/// (util/thread_pool.hpp) before one commit pass in visit order. Under
/// capacity pressure every datum builds its own table and gets its own
/// masked solve, on the calling thread at every thread count. The schedule
/// is bit-identical for every thread count.
[[nodiscard]] DataSchedule scheduleGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {},
    GomcdsEngine engine = GomcdsEngine::kChamfer, unsigned threads = 1);

}  // namespace pimsched
