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
/// Data with byte-identical windowed reference strings — common in
/// matmul/LU traces — form one equivalence class and share one serving-cost
/// table; under a static forbidden set (no capacity pressure) they also
/// share one solved path. Table rows come from a per-call CenterCostCache
/// (cost/cost_cache.hpp).
///
/// `threads` executors (0 = hardware concurrency) solve the per-datum DAGs;
/// the schedule is bit-identical for every thread count. Under a static
/// forbidden set the class paths are solved in parallel and committed in
/// visit order. Under capacity pressure, threads == 1 runs the sequential
/// per-datum loop; any other value runs plan/commit rounds: workers solve
/// every pending datum against a read-only snapshot of the full slots, then
/// a sequential commit pass places data in visit order until the first
/// plan that lost a slot to an earlier commit, and only the invalidated
/// plans are re-solved next round. A plan that still fits the grown
/// forbidden set is still the cost- and tie-break-minimal path the
/// sequential loop would pick, which is what makes the result identical.
/// Helper workers come from the shared ThreadPool (util/thread_pool.hpp).
[[nodiscard]] DataSchedule scheduleGomcds(
    const WindowedRefs& refs, const CostModel& model,
    const SchedulerOptions& options = {},
    GomcdsEngine engine = GomcdsEngine::kChamfer, unsigned threads = 1);

}  // namespace pimsched
