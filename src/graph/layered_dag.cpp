#include "graph/layered_dag.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "graph/simd/simd_kernels.hpp"
#include "obs/obs.hpp"

namespace pimsched {

namespace {

/// Backward path reconstruction shared by both kernels: given the dp table
/// (dp[w * N + p] = best cost of a prefix ending with node p in layer w),
/// walk from the best final node to the front, picking at each step the
/// smallest predecessor q that attains dp[w][p] == dp[w-1][q] + trans(q,p) +
/// node(w,p). `scanPrev(prevRow, cur, target, own)` performs that argmin
/// scan and returns -1 when nothing attains the target; it is a statically
/// dispatched callable, so the scan loops stay free of indirect calls.
///
/// Every scanner below matches the reference condition
///   satAdd(satAdd(prevRow[q], trans(q, cur)), own) == target
/// exactly. Since target < kInfiniteCost here, own is finite too, and the
/// condition reduces to: both terms finite and prevRow[q] + trans == target
/// - own — a single add per candidate instead of two saturating adds.
///
/// `parents`, when non-null, memoizes the scans: a cached entry >= 0 is
/// used verbatim (it is the pure-function result of an earlier scan over
/// the same dp rows — the kernels invalidate entries whose
/// rows changed), and every fresh scan is stored back. Since the scan is
/// deterministic, cache hits and misses pick identical predecessors.
template <class ScanFn>
void reconstructFlat(int numLayers, int numNodes, const Cost* dp,
                     const Cost* nodeCosts, const ScanFn& scanPrev,
                     std::int32_t* parents, LayeredPath& out) {
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const Cost* last = dp + static_cast<std::size_t>(numLayers - 1) * n;
  const Cost* best = std::min_element(last, last + n);
  out.nodes.clear();
  out.total = *best;
  if (out.total >= kInfiniteCost) return;

  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last);
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const std::size_t row = static_cast<std::size_t>(w) * n;
    int prev = parents ? parents[row + static_cast<std::size_t>(cur)] : -1;
    if (prev < 0) {
      const Cost target = dp[row + static_cast<std::size_t>(cur)];
      const Cost own = nodeCosts[row + static_cast<std::size_t>(cur)];
      prev = scanPrev(dp + row - n, cur, target, own);
      if (prev < 0) {
        throw std::logic_error("LayeredDagSolver: path reconstruction failed");
      }
      if (parents) {
        parents[row + static_cast<std::size_t>(cur)] =
            static_cast<std::int32_t>(prev);
      }
    }
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
}

/// The saturating per-step chamfer sweeps, kept as the fallback when beta is
/// so large that the branch-free variant's deferred clamp could overflow.
///
/// Split per row like the branch-free variant: relax from the finished
/// neighbouring row (vectorized satAddMinRow), then the serial in-row scan.
/// Equivalent to the interleaved per-cell formulation: with F the
/// interleaved forward value and G this one, both satisfy the identical
/// recurrence min(v, F(r-1,c) saturating-plus beta, F(r,c-1) saturating-plus
/// beta) by induction over (r, c), so every cell matches bit-for-bit. The
/// in-row scans stay scalar on purpose — a log-step scan would collapse
/// chains of satAdd into k*beta jumps, which differs once values approach
/// kInfiniteCost.
void minPlusSaturating(const Grid& grid, Cost beta, Cost* h) {
  const auto& k = simd::active();
  const int R = grid.rows();
  const int C = grid.cols();
  const std::size_t cs = static_cast<std::size_t>(C);
  for (int r = 0; r < R; ++r) {
    Cost* row = h + static_cast<std::size_t>(r) * cs;
    if (r > 0) k.satAddMinRow(row - cs, beta, row, cs);
    for (int c = 1; c < C; ++c) {
      row[c] = std::min(row[c], satAdd(row[c - 1], beta));
    }
  }
  for (int r = R - 1; r >= 0; --r) {
    Cost* row = h + static_cast<std::size_t>(r) * cs;
    if (r + 1 < R) k.satAddMinRow(row + cs, beta, row, cs);
    for (int c = C - 2; c >= 0; --c) {
      row[c] = std::min(row[c], satAdd(row[c + 1], beta));
    }
  }
}

/// Prepares a predecessor cache for a solve: entries for the
/// re-relaxed layers [fromLayer, numLayers) are dropped (their dp/node-cost
/// rows are about to change); a wrong-sized cache is rebuilt empty, which
/// is always safe since every entry is recomputed on demand. Returns the
/// raw table, or nullptr when no cache was supplied.
std::int32_t* resetParentCache(LayeredParentCache* parents, int fromLayer,
                               int numLayers, std::size_t n) {
  if (parents == nullptr) return nullptr;
  const std::size_t ln = static_cast<std::size_t>(numLayers) * n;
  if (parents->size() != ln) {
    parents->assign(ln, -1);
  } else {
    // Layer-0 entries are never read; start at row 1 like the relaxation.
    const std::size_t first = std::min(
        static_cast<std::size_t>(std::max(fromLayer, 1)) * n, ln);
    std::fill(parents->begin() + static_cast<std::ptrdiff_t>(first),
              parents->end(), -1);
  }
  return parents->data();
}

}  // namespace

void manhattanMinPlusInto(const Grid& grid, std::span<const Cost> in,
                          Cost beta, std::span<Cost> out) {
  const std::size_t n = static_cast<std::size_t>(grid.size());
  if (in.size() != n || out.size() != n) {
    throw std::invalid_argument("manhattanMinPlus: size mismatch");
  }
  if (beta < 0) throw std::invalid_argument("manhattanMinPlus: beta < 0");
  Cost* h = out.data();
  if (h != in.data()) std::copy(in.begin(), in.end(), h);

  const int R = grid.rows();
  const int C = grid.cols();
  // The branch-free sweeps let forbidden (kInfiniteCost) cells drift up to
  // 2*(R+C) beta-steps above kInfiniteCost before the final clamp; fall back
  // to the saturating per-step variant when that headroom could overflow.
  const Cost steps = 2 * static_cast<Cost>(R + C) + 2;
  if (beta > 0 && beta > (INT64_MAX - kInfiniteCost) / steps) {
    minPlusSaturating(grid, beta, h);
    return;
  }

  // The L1 transform is separable — a vertical relax stage plus in-row
  // scans — and runs strip by strip (4 rows at a time) so a strip is still
  // cache-resident across both stages; the vector tiers additionally fuse
  // the two stages into a single pass over the strip. Seeding a strip from
  // the fully-swept row above (instead of the vertical-only value) only
  // re-adds candidates v(r',c') + beta*(dr+dc) the row's own scan
  // contributes anyway — every schedule here computes the min of the
  // classic interleaved sweep's per-cell candidate set with exact sums,
  // hence bit-identical values.
  const auto& k = simd::active();
  const std::size_t cs = static_cast<std::size_t>(C);
  constexpr int kStrip = 4;
  for (int rs = 0; rs < R; rs += kStrip) {
    const int rn = std::min(kStrip, R - rs);
    Cost* strip = h + static_cast<std::size_t>(rs) * cs;
    k.chamferForwardStrip(strip, rs > 0 ? strip - cs : nullptr,
                          static_cast<std::size_t>(rn), cs, beta, cs);
  }
  // Backward: values flow left and up, mirrored, strips bottom-up.
  for (int rs = ((R - 1) / kStrip) * kStrip; rs >= 0; rs -= kStrip) {
    const int rn = std::min(kStrip, R - rs);
    Cost* strip = h + static_cast<std::size_t>(rs) * cs;
    k.chamferBackwardStrip(
        strip,
        rs + rn < R ? strip + static_cast<std::size_t>(rn) * cs : nullptr,
        static_cast<std::size_t>(rn), cs, beta, cs);
  }
  // Deferred clamp: anything at or above kInfiniteCost is unreachable.
  k.clampInf(h, n);
}

void LayeredDagSolver::solveTable(int numLayers, int numNodes,
                                  std::span<const Cost> nodeCosts,
                                  std::span<const Cost> transCosts,
                                  int fromLayer, CostBuffer& dpBuf,
                                  LayeredDagScratch& scratch, LayeredPath& out,
                                  LayeredParentCache* parents) {
  if (numLayers < 1 || numNodes < 1) {
    throw std::invalid_argument("LayeredDagSolver: empty problem");
  }
  if (fromLayer < 0 || fromLayer > numLayers) {
    throw std::invalid_argument("LayeredDagSolver: fromLayer out of range");
  }
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const std::size_t ln = static_cast<std::size_t>(numLayers) * n;
  if (nodeCosts.size() != ln) {
    throw std::invalid_argument("LayeredDagSolver: node-cost table size mismatch");
  }
  if (transCosts.size() != n * n) {
    throw std::invalid_argument(
        "LayeredDagSolver: transition table size mismatch");
  }
  if (fromLayer > 0 && dpBuf.size() < ln) {
    throw std::invalid_argument(
        "LayeredDagSolver: retained dp table too small for resume");
  }
  // Counters only, no scoped timer: the kernels are called per datum, and
  // from pool workers in the static-set fan-out, where a timer's clock
  // reads and shared atomic read-modify-writes measurably serialized the
  // solves.
  PIMSCHED_COUNTER_ADD("solver.runs", 1);
  PIMSCHED_COUNTER_ADD("solver.relaxed_layers",
                       numLayers - std::max(fromLayer, 1));

  const auto& k = simd::active();
  dpBuf.resize(ln);
  scratch.relaxed.resize(n);
  Cost* dp = dpBuf.data();
  Cost* relaxed = scratch.relaxed.data();
  const Cost* nc = nodeCosts.data();
  const Cost* trans = transCosts.data();
  std::int32_t* par = resetParentCache(parents, fromLayer, numLayers, n);

  if (fromLayer == 0) std::copy(nc, nc + n, dp);
  for (int w = std::max(fromLayer, 1); w < numLayers; ++w) {
    const Cost* prev = dp + static_cast<std::size_t>(w - 1) * n;
    // Min-plus against the full table. Sources run in the outer loop so the
    // inner pass reads one contiguous table row; unreachable sums drift
    // above kInfiniteCost and are clamped in combineLayer.
    std::fill(relaxed, relaxed + n, kInfiniteCost);
    for (std::size_t q = 0; q < n; ++q) {
      const Cost dq = prev[q];
      if (dq >= kInfiniteCost) continue;
      k.minPlusRow(trans + q * n, dq, relaxed, n);
    }
    k.combineLayer(relaxed, nc + static_cast<std::size_t>(w) * n,
                   dp + static_cast<std::size_t>(w) * n, n);
  }
  // Table scan: trans entries follow the cost contract (finite values keep
  // partial sums below kInfiniteCost), so `prev + t` cannot overflow once
  // both guards pass and plain equality against `need` is exact.
  reconstructFlat(
      numLayers, numNodes, dp, nc,
      [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
        const Cost need = target - own;
        const Cost* col = trans + static_cast<std::size_t>(cur);
        for (std::size_t q = 0; q < n; ++q) {
          const Cost t = col[q * n];
          if (prevRow[q] < kInfiniteCost && t < kInfiniteCost &&
              prevRow[q] + t == need) {
            return static_cast<int>(q);
          }
        }
        return -1;
      },
      par, out);
}

void LayeredDagSolver::solveManhattan(const Grid& grid, int numLayers,
                                      std::span<const Cost> nodeCosts,
                                      Cost beta, int fromLayer,
                                      CostBuffer& dpBuf,
                                      LayeredDagScratch& scratch,
                                      LayeredPath& out,
                                      LayeredParentCache* parents) {
  const int numNodes = grid.size();
  if (numLayers < 1) {
    throw std::invalid_argument("LayeredDagSolver: empty problem");
  }
  if (fromLayer < 0 || fromLayer > numLayers) {
    throw std::invalid_argument("LayeredDagSolver: fromLayer out of range");
  }
  const std::size_t n = static_cast<std::size_t>(numNodes);
  const std::size_t ln = static_cast<std::size_t>(numLayers) * n;
  if (nodeCosts.size() != ln) {
    throw std::invalid_argument("LayeredDagSolver: node-cost table size mismatch");
  }
  if (fromLayer > 0 && dpBuf.size() < ln) {
    throw std::invalid_argument(
        "LayeredDagSolver: retained dp table too small for resume");
  }
  // Counters only; see solveTable.
  PIMSCHED_COUNTER_ADD("solver.runs", 1);
  PIMSCHED_COUNTER_ADD("solver.relaxed_layers",
                       numLayers - std::max(fromLayer, 1));

  const auto& k = simd::active();
  dpBuf.resize(ln);
  scratch.relaxed.resize(n);
  Cost* dp = dpBuf.data();
  Cost* relaxed = scratch.relaxed.data();
  const Cost* nc = nodeCosts.data();
  std::int32_t* par = resetParentCache(parents, fromLayer, numLayers, n);

  if (fromLayer == 0) std::copy(nc, nc + n, dp);
  for (int w = std::max(fromLayer, 1); w < numLayers; ++w) {
    const Cost* prev = dp + static_cast<std::size_t>(w - 1) * n;
    manhattanMinPlusInto(grid, std::span<const Cost>(prev, n), beta,
                         std::span<Cost>(relaxed, n));
    k.combineLayer(relaxed, nc + static_cast<std::size_t>(w) * n,
                   dp + static_cast<std::size_t>(w) * n, n);
  }
  // Chamfer scan, division-free: the layer's node splits into (row, col)
  // once, then every candidate's transition is two |delta| multiplies — no
  // Grid::manhattan (two integer divisions) per candidate. Transitions top
  // out at beta * (R + C), which the sweep guard above bounds below
  // (INT64_MAX - kInfiniteCost) / 2, so `prev + t` with prev < kInfiniteCost
  // cannot overflow; for huge beta fall back to the saturating reference
  // scan (beta * manhattan per candidate, with saturating adds).
  const int R = grid.rows();
  const int C = grid.cols();
  const Cost steps = 2 * static_cast<Cost>(R + C) + 2;
  if (beta == 0 || beta <= (INT64_MAX - kInfiniteCost) / steps) {
    // Per candidate row, the whole-row transition part rowT is constant and
    // the in-row part colT[qc] = beta * |qc - cc| depends only on cc, so it
    // is staged once per reconstruction step (into `relaxed`, idle by now)
    // and the scan becomes one findPredecessor per row with the rowT folded
    // into the probe: pr[qc] + colT == need - rowT and colT < kInf - rowT
    // are exact rearrangements of the original conditions (rowT and colT
    // are each below INT64_MAX - kInfiniteCost here, so nothing wraps).
    Cost* colT = relaxed;
    reconstructFlat(
        numLayers, numNodes, dp, nc,
        [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
          const Cost need = target - own;
          const int cr = cur / C;
          const int cc = cur % C;
          for (int qc = 0; qc < C; ++qc) {
            colT[qc] = beta * static_cast<Cost>(qc > cc ? qc - cc : cc - qc);
          }
          for (int qr = 0; qr < R; ++qr) {
            const Cost rowT =
                beta * static_cast<Cost>(qr > cr ? qr - cr : cr - qr);
            if (rowT >= kInfiniteCost) continue;
            const Cost* pr =
                prevRow + static_cast<std::size_t>(qr) *
                              static_cast<std::size_t>(C);
            const std::ptrdiff_t qc =
                k.findPredecessor(pr, colT, need - rowT, kInfiniteCost - rowT,
                                  static_cast<std::size_t>(C));
            if (qc >= 0) return qr * C + static_cast<int>(qc);
          }
          return -1;
        },
        par, out);
  } else {
    reconstructFlat(
        numLayers, numNodes, dp, nc,
        [&](const Cost* prevRow, int cur, Cost target, Cost own) -> int {
          for (int q = 0; q < numNodes; ++q) {
            const Cost t =
                beta * grid.manhattan(static_cast<ProcId>(q),
                                      static_cast<ProcId>(cur));
            if (satAdd(satAdd(prevRow[static_cast<std::size_t>(q)], t), own) ==
                target) {
              return q;
            }
          }
          return -1;
        },
        par, out);
  }
}

}  // namespace pimsched
