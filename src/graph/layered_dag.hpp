#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/grid.hpp"
#include "pim/types.hpp"
#include "util/aligned.hpp"

namespace pimsched {

/// Saturating add that keeps kInfiniteCost absorbing.
[[nodiscard]] inline Cost satAdd(Cost a, Cost b) {
  if (a >= kInfiniteCost || b >= kInfiniteCost) return kInfiniteCost;
  return a + b;
}

/// A minimum-cost path through a layered DAG: one node per layer.
struct LayeredPath {
  std::vector<int> nodes;  ///< chosen node in each layer; empty if infeasible
  Cost total = kInfiniteCost;

  [[nodiscard]] bool feasible() const { return total < kInfiniteCost; }
};

/// Reusable scratch for the solver kernels: grow-only buffers that hold the
/// dp table of a cold solve and one relaxed layer. Hand one instance per
/// thread (see workerScratch in util/thread_pool.hpp) and steady-state
/// solves make zero heap allocations. Buffers are CostBuffer (64-byte
/// aligned, see util/aligned.hpp) so the SIMD sweeps start on cache-line
/// boundaries.
struct LayeredDagScratch {
  CostBuffer dp;       ///< numLayers x numNodes dp table of a cold solve
  CostBuffer relaxed;  ///< one min-plus-relaxed layer
};

/// Memoized predecessor cache for resumed solves: a
/// numLayers x numNodes table where entry [w * N + p] is the predecessor
/// the backward argmin scan resolved for node p in layer w, or -1 when
/// that (layer, node) has never been scanned against the current dp rows.
/// The predecessor of (w, p) is a pure function of dp row w-1, the node
/// cost row w, and the transition costs, so cached entries stay valid
/// exactly as long as the retained dp rows they were scanned against —
/// the kernels invalidate rows [fromLayer, numLayers) on entry and
/// fill entries lazily during reconstruction. Over a stream of warm
/// solves the unchanged-prefix entries accumulate, and reconstruction
/// collapses from one argmin scan per layer to a pointer walk wherever a
/// previously scanned chain is rejoined.
using LayeredParentCache = std::vector<std::int32_t>;

/// Shortest path through a DAG of `numLayers` layers with `numNodes` nodes
/// per layer — the structure of the paper's GOMCDS cost-graph (pseudo
/// source/destination are implicit). The path cost is
///   sum_w nodeCosts[w * N + n_w] + sum_w trans(n_{w-1}, n_w).
///
/// nodeCosts is a row-major numLayers x numNodes table; an entry of
/// kInfiniteCost forbids that placement (used for capacity-exhausted
/// processors). Ties break toward the smaller node id, resolved by a
/// backward argmin reconstruction, so both kernels produce the identical
/// path for the same transition costs.
///
/// Cost contract: finite costs are small enough that any partial path sum
/// stays below kInfiniteCost, and forbidden placements are exactly
/// kInfiniteCost. The kernels rely on this to run their inner passes
/// branch-free with a single final clamp. Experiment and StreamSession
/// (core/pipeline.hpp) reject inputs that could break it.
///
/// Both kernels resume: `dp` is a caller-held numLayers x numNodes dp
/// table. A cold solve is fromLayer == 0 into scratch.dp. With fromLayer
/// > 0, rows [0, fromLayer) of `dp` must be those of an earlier solve
/// whose node-cost rows [0, fromLayer) and transitions are byte-identical
/// to this one; only layers [fromLayer, numLayers) are re-relaxed, and
/// fromLayer == numLayers re-runs only the reconstruction. The resulting
/// dp table and path are bit-identical to a cold solve, tie-breaks
/// included.
///
/// `parents`, when non-null, is a caller-held LayeredParentCache for `dp`:
/// entries for layers [fromLayer, numLayers) are invalidated on entry (a
/// wrong-sized cache is reset wholesale, which is always safe — every entry
/// is recomputed on demand), entries below fromLayer are trusted under the
/// same contract as the retained dp rows, and reconstruction consults the
/// cache before scanning and stores every predecessor it does scan. Cached
/// or scanned, the chosen predecessors — and therefore the path — are
/// bit-identical.
class LayeredDagSolver {
 public:
  /// Generic O(numLayers * numNodes^2) relaxation — the literal cost-graph.
  /// transCosts is a row-major numNodes x numNodes table indexed by source
  /// (transCosts[q * N + p] = cost of the q -> p transition — rows by
  /// source, since fault-aware distances can be asymmetric).
  static void solveTable(int numLayers, int numNodes,
                         std::span<const Cost> nodeCosts,
                         std::span<const Cost> transCosts, int fromLayer,
                         CostBuffer& dp, LayeredDagScratch& scratch,
                         LayeredPath& out,
                         LayeredParentCache* parents = nullptr);

  /// Fast path for transition cost beta * manhattan(prev, node) on `grid`
  /// (numNodes = grid.size()): each min-plus step is a two-pass L1 distance
  /// transform, giving O(numLayers * numNodes) total. Identical result and
  /// path to solveTable with that transition table. The transition depends
  /// only on grid and beta, so retained dp rows stay valid as long as those
  /// and the node-cost prefix are unchanged.
  static void solveManhattan(const Grid& grid, int numLayers,
                             std::span<const Cost> nodeCosts, Cost beta,
                             int fromLayer, CostBuffer& dp,
                             LayeredDagScratch& scratch, LayeredPath& out,
                             LayeredParentCache* parents = nullptr);
};

/// The L1 (chamfer) min-plus convolution used by solveManhattan:
/// out[p] = min over q of in[q] + beta * manhattan(p, q), for `in` and
/// `out` both of grid.size(). `out` may alias `in` exactly or not at all —
/// partial overlap is undefined. The two sweeps are branch-free (raw adds
/// with one final clamp to kInfiniteCost) and run through the dispatched
/// SIMD kernels (graph/simd/simd_kernels.hpp) — bit-identical across tiers;
/// inputs must follow the solver cost contract above.
void manhattanMinPlusInto(const Grid& grid, std::span<const Cost> in,
                          Cost beta, std::span<Cost> out);

}  // namespace pimsched
