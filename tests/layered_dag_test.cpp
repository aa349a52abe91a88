#include "graph/layered_dag.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <tuple>

#include "graph/simd/simd_kernels.hpp"
#include "solver_test_util.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

/// The pre-flat solver algorithm, kept verbatim as the bit-identity oracle:
/// per-cell saturating dp (dp[w][p] = min_q satAdd(dp[w-1][q], trans(q,p))
/// + own) and the backward smallest-q reconstruction scan. The flat kernels
/// must reproduce its totals, node sequences, and tie-breaks exactly.
LayeredPath referenceSolve(int numLayers, int numNodes,
                           const std::function<Cost(int, int)>& nodeCost,
                           const std::function<Cost(int, int)>& transCost) {
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(numLayers),
      std::vector<Cost>(static_cast<std::size_t>(numNodes)));
  for (int p = 0; p < numNodes; ++p) {
    dp[0][static_cast<std::size_t>(p)] = nodeCost(0, p);
  }
  for (int w = 1; w < numLayers; ++w) {
    for (int p = 0; p < numNodes; ++p) {
      Cost best = kInfiniteCost;
      for (int q = 0; q < numNodes; ++q) {
        best = std::min(
            best, satAdd(dp[static_cast<std::size_t>(w - 1)]
                           [static_cast<std::size_t>(q)],
                         transCost(q, p)));
      }
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          satAdd(best, nodeCost(w, p));
    }
  }
  LayeredPath out;
  const auto& last = dp[static_cast<std::size_t>(numLayers - 1)];
  const auto best = std::min_element(last.begin(), last.end());
  out.total = *best;
  if (out.total >= kInfiniteCost) return out;
  out.nodes.assign(static_cast<std::size_t>(numLayers), 0);
  int cur = static_cast<int>(best - last.begin());
  out.nodes[static_cast<std::size_t>(numLayers - 1)] = cur;
  for (int w = numLayers - 1; w > 0; --w) {
    const Cost target =
        dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(cur)];
    const Cost own = nodeCost(w, cur);
    int prev = -1;
    for (int q = 0; q < numNodes; ++q) {
      if (satAdd(satAdd(dp[static_cast<std::size_t>(w - 1)]
                          [static_cast<std::size_t>(q)],
                        transCost(q, cur)),
                 own) == target) {
        prev = q;
        break;
      }
    }
    if (prev < 0) throw std::logic_error("referenceSolve: no predecessor");
    cur = prev;
    out.nodes[static_cast<std::size_t>(w - 1)] = cur;
  }
  return out;
}

/// Random node-cost table with forbidden (kInfiniteCost) entries mixed in.
std::vector<Cost> randomNodeTable(testutil::Rng& rng, int layers, int nodes,
                                  Cost maxCost = 40) {
  std::vector<Cost> t(static_cast<std::size_t>(layers) *
                      static_cast<std::size_t>(nodes));
  for (Cost& c : t) {
    c = rng.below(6) == 0 ? kInfiniteCost : rng.range(0, maxCost);
  }
  return t;
}

TEST(SatAdd, Saturates) {
  EXPECT_EQ(satAdd(1, 2), 3);
  EXPECT_EQ(satAdd(kInfiniteCost, 1), kInfiniteCost);
  EXPECT_EQ(satAdd(5, kInfiniteCost), kInfiniteCost);
  EXPECT_EQ(satAdd(kInfiniteCost, kInfiniteCost), kInfiniteCost);
}

TEST(ManhattanMinPlus, ZeroBetaGivesGlobalMin) {
  const Grid g(4, 5);
  testutil::Rng rng(3);
  std::vector<Cost> in;
  for (int i = 0; i < g.size(); ++i) in.push_back(rng.range(0, 100));
  const Cost globalMin = *std::min_element(in.begin(), in.end());
  for (const Cost v : testutil::manhattanMinPlus(g, in, 0)) {
    EXPECT_EQ(v, globalMin);
  }
}

TEST(ManhattanMinPlus, MatchesBruteForce) {
  testutil::Rng rng(17);
  for (const auto& [rows, cols] : {std::pair{1, 1}, {1, 6}, {6, 1}, {4, 4},
                                  {3, 7}, {5, 5}}) {
    const Grid g(rows, cols);
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      std::vector<Cost> in;
      for (int i = 0; i < g.size(); ++i) {
        // Mix in a few forbidden nodes.
        in.push_back(rng.below(5) == 0 ? kInfiniteCost : rng.range(0, 50));
      }
      const auto fast = testutil::manhattanMinPlus(g, in, beta);
      for (ProcId p = 0; p < g.size(); ++p) {
        Cost expect = kInfiniteCost;
        for (ProcId q = 0; q < g.size(); ++q) {
          expect = std::min(
              expect,
              satAdd(in[static_cast<std::size_t>(q)], beta * g.manhattan(p, q)));
        }
        ASSERT_EQ(fast[static_cast<std::size_t>(p)], expect)
            << rows << "x" << cols << " beta " << beta << " p " << p;
      }
    }
  }
}

TEST(ManhattanMinPlus, AllInfiniteStaysInfinite) {
  const Grid g(3, 3);
  const std::vector<Cost> in(9, kInfiniteCost);
  for (const Cost v : testutil::manhattanMinPlus(g, in, 2)) {
    EXPECT_EQ(v, kInfiniteCost);
  }
}

TEST(LayeredDagSolver, SingleLayerPicksMinNode) {
  const auto nodeCost = [](int, int n) -> Cost { return (n == 2) ? 1 : 5; };
  const auto trans = [](int, int) -> Cost { return 0; };
  const LayeredPath path = testutil::solveCallbacks(1, 4, nodeCost, trans);
  ASSERT_TRUE(path.feasible());
  EXPECT_EQ(path.total, 1);
  EXPECT_EQ(path.nodes, (std::vector<int>{2}));
}

TEST(LayeredDagSolver, TradesNodeCostAgainstTransition) {
  // Two layers, two nodes. Node 0 is cheap in both layers, node 1 cheap in
  // layer 1 only; transition cost 10 forbids switching.
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 0) return n == 0 ? 0 : 4;
    return n == 0 ? 3 : 0;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 10; };
  const LayeredPath path = testutil::solveCallbacks(2, 2, nodeCost, trans);
  EXPECT_EQ(path.total, 3);  // stay at node 0: 0 + 3
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 0}));
}

TEST(LayeredDagSolver, SwitchesWhenWorthIt) {
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 0) return n == 0 ? 0 : 100;
    return n == 0 ? 100 : 0;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 1; };
  const LayeredPath path = testutil::solveCallbacks(2, 2, nodeCost, trans);
  EXPECT_EQ(path.total, 1);
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 1}));
}

TEST(LayeredDagSolver, InfeasibleWhenLayerFullyForbidden) {
  const auto nodeCost = [](int layer, int) -> Cost {
    return layer == 1 ? kInfiniteCost : 0;
  };
  const auto trans = [](int, int) -> Cost { return 0; };
  const LayeredPath path = testutil::solveCallbacks(3, 2, nodeCost, trans);
  EXPECT_FALSE(path.feasible());
  EXPECT_TRUE(path.nodes.empty());
}

TEST(LayeredDagSolver, RoutesAroundForbiddenNodes) {
  // Node 0 forbidden in layer 1 only; optimal path detours via node 1.
  const auto nodeCost = [](int layer, int n) -> Cost {
    if (layer == 1 && n == 0) return kInfiniteCost;
    return n == 0 ? 0 : 2;
  };
  const auto trans = [](int a, int b) -> Cost { return a == b ? 0 : 1; };
  const LayeredPath path = testutil::solveCallbacks(3, 2, nodeCost, trans);
  ASSERT_TRUE(path.feasible());
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(path.total, 0 + 1 + 2 + 1 + 0);
}

// Property: the chamfer engine must agree with the literal cost-graph
// relaxation — identical totals AND identical paths (shared tie-breaking).
class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(EngineEquivalence, ChamferMatchesNaive) {
  const auto [rows, cols, layers, seed] = GetParam();
  const Grid g(rows, cols);
  testutil::Rng rng(static_cast<std::uint64_t>(seed));
  for (const Cost beta : {Cost{0}, Cost{1}, Cost{2}}) {
    // Random node costs with some forbidden cells.
    std::vector<std::vector<Cost>> costs(
        static_cast<std::size_t>(layers),
        std::vector<Cost>(static_cast<std::size_t>(g.size())));
    for (auto& layer : costs) {
      for (auto& c : layer) {
        c = rng.below(6) == 0 ? kInfiniteCost : rng.range(0, 40);
      }
    }
    const auto nodeCost = [&costs](int w, int p) -> Cost {
      return costs[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)];
    };
    const auto trans = [&g, beta](int a, int b) -> Cost {
      return beta * g.manhattan(static_cast<ProcId>(a),
                                static_cast<ProcId>(b));
    };
    const LayeredPath naive =
        testutil::solveCallbacks(layers, g.size(), nodeCost, trans);
    const LayeredPath fast = testutil::solveManhattanCold(
        g, layers, testutil::nodeTable(layers, g.size(), nodeCost), beta);
    ASSERT_EQ(naive.total, fast.total);
    ASSERT_EQ(naive.nodes, fast.nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, EngineEquivalence,
    ::testing::Values(std::make_tuple(2, 2, 1, 1), std::make_tuple(2, 2, 4, 2),
                      std::make_tuple(4, 4, 6, 3), std::make_tuple(1, 7, 5, 4),
                      std::make_tuple(5, 1, 5, 5), std::make_tuple(3, 4, 8, 6),
                      std::make_tuple(4, 4, 2, 7),
                      std::make_tuple(6, 3, 10, 8)));

// Property: the flat table kernel is bit-identical — totals, node
// sequences, tie-breaks — to the pre-flat saturating dp on random
// instances, including asymmetric transition tables with forbidden edges
// (the fault-aware regime, where trans(q,p) != trans(p,q)).
TEST(FlatSolver, TableKernelMatchesReferenceOnRandomInstances) {
  testutil::Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const int nodes = static_cast<int>(rng.range(1, 9));
    const int layers = static_cast<int>(rng.range(1, 8));
    const std::vector<Cost> nodeTable = randomNodeTable(rng, layers, nodes);
    std::vector<Cost> trans(static_cast<std::size_t>(nodes) *
                            static_cast<std::size_t>(nodes));
    for (Cost& c : trans) {
      c = rng.below(8) == 0 ? kInfiniteCost : rng.range(0, 20);
    }
    const auto nodeCost = [&](int w, int p) -> Cost {
      return nodeTable[static_cast<std::size_t>(w) *
                           static_cast<std::size_t>(nodes) +
                       static_cast<std::size_t>(p)];
    };
    const auto transCost = [&](int q, int p) -> Cost {
      return trans[static_cast<std::size_t>(q) *
                       static_cast<std::size_t>(nodes) +
                   static_cast<std::size_t>(p)];
    };
    const LayeredPath expect =
        referenceSolve(layers, nodes, nodeCost, transCost);
    const LayeredPath flat =
        testutil::solveTableCold(layers, nodes, nodeTable, trans);
    ASSERT_EQ(flat.total, expect.total) << "trial " << trial;
    ASSERT_EQ(flat.nodes, expect.nodes) << "trial " << trial;
    // The same instance given as callbacks and materialized into tables
    // must give identical output again.
    const LayeredPath wrapped =
        testutil::solveCallbacks(layers, nodes, nodeCost, transCost);
    ASSERT_EQ(wrapped.total, expect.total) << "trial " << trial;
    ASSERT_EQ(wrapped.nodes, expect.nodes) << "trial " << trial;
  }
}

// Property: the Manhattan flat kernel (branch-free chamfer sweeps +
// division-free reconstruction scan) is bit-identical to the reference dp
// with trans(q, p) = beta * manhattan(q, p) — the fault-free regime.
TEST(FlatSolver, ManhattanKernelMatchesReferenceOnRandomInstances) {
  testutil::Rng rng(202);
  for (const auto& [rows, cols] : {std::pair{1, 1}, {1, 6}, {4, 4}, {3, 5}}) {
    const Grid g(rows, cols);
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      for (int trial = 0; trial < 6; ++trial) {
        const int layers = static_cast<int>(rng.range(1, 8));
        const std::vector<Cost> nodeTable =
            randomNodeTable(rng, layers, g.size());
        const auto nodeCost = [&](int w, int p) -> Cost {
          return nodeTable[static_cast<std::size_t>(w) *
                               static_cast<std::size_t>(g.size()) +
                           static_cast<std::size_t>(p)];
        };
        const auto transCost = [&](int q, int p) -> Cost {
          return beta * g.manhattan(static_cast<ProcId>(q),
                                    static_cast<ProcId>(p));
        };
        const LayeredPath expect =
            referenceSolve(layers, g.size(), nodeCost, transCost);
        const LayeredPath flat =
            testutil::solveManhattanCold(g, layers, nodeTable, beta);
        ASSERT_EQ(flat.total, expect.total)
            << rows << "x" << cols << " beta " << beta << " trial " << trial;
        ASSERT_EQ(flat.nodes, expect.nodes)
            << rows << "x" << cols << " beta " << beta << " trial " << trial;
        const LayeredPath wrapped = testutil::solveManhattanCold(
            g, layers, testutil::nodeTable(layers, g.size(), nodeCost), beta);
        ASSERT_EQ(wrapped.total, expect.total);
        ASSERT_EQ(wrapped.nodes, expect.nodes);
      }
    }
  }
}

// A beta past the branch-free guard must take the saturating fallbacks
// (sweeps and reconstruction scan) and still match the reference exactly.
TEST(FlatSolver, HugeBetaFallbackMatchesReference) {
  const Grid g(3, 3);
  // Just above the overflow guard beta > (INT64_MAX - kInf) / (2(R+C)+2),
  // yet small enough that beta * manhattan stays representable.
  const Cost steps = 2 * Cost{3 + 3} + 2;
  const Cost beta = (INT64_MAX - kInfiniteCost) / steps + 1;
  testutil::Rng rng(303);
  const std::vector<Cost> nodeTable = randomNodeTable(rng, 5, g.size());
  const auto nodeCost = [&](int w, int p) -> Cost {
    return nodeTable[static_cast<std::size_t>(w) *
                         static_cast<std::size_t>(g.size()) +
                     static_cast<std::size_t>(p)];
  };
  const auto transCost = [&](int q, int p) -> Cost {
    return beta *
           g.manhattan(static_cast<ProcId>(q), static_cast<ProcId>(p));
  };
  const LayeredPath expect =
      referenceSolve(5, g.size(), nodeCost, transCost);
  const LayeredPath flat =
      testutil::solveManhattanCold(g, 5, nodeTable, beta);
  EXPECT_EQ(flat.total, expect.total);
  EXPECT_EQ(flat.nodes, expect.nodes);
}

// The kernels reuse caller scratch between calls, and manhattanMinPlusInto
// may alias input and output.
TEST(FlatSolver, IntoVariantsReuseBuffersAndSupportAliasing) {
  const Grid g(3, 4);
  testutil::Rng rng(404);
  std::vector<Cost> in;
  for (int i = 0; i < g.size(); ++i) {
    in.push_back(rng.below(5) == 0 ? kInfiniteCost : rng.range(0, 30));
  }
  const std::vector<Cost> expect = testutil::manhattanMinPlus(g, in, 2);

  std::vector<Cost> out(in.size());
  manhattanMinPlusInto(g, in, 2, out);
  EXPECT_EQ(out, expect);

  std::vector<Cost> aliased = in;
  manhattanMinPlusInto(g, aliased, 2, aliased);  // in-place
  EXPECT_EQ(aliased, expect);

  LayeredDagScratch scratch;
  LayeredPath path;
  const std::vector<Cost> nodeTable = randomNodeTable(rng, 6, g.size());
  LayeredDagSolver::solveManhattan(g, 6, nodeTable, 1, 0, scratch.dp, scratch,
                                   path);
  const LayeredPath once = path;
  LayeredDagSolver::solveManhattan(g, 6, nodeTable, 1, 0, scratch.dp, scratch,
                                   path);
  EXPECT_EQ(path.total, once.total);
  EXPECT_EQ(path.nodes, once.nodes);
}

// Restores the dispatched SIMD tier on scope exit so cross-tier tests
// cannot leak a forced tier into later tests in this binary.
class TierGuard {
 public:
  TierGuard() : saved_(simd::activeTier()) {}
  ~TierGuard() { simd::forceTier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> supportedTiers() {
  std::vector<simd::Tier> out = {simd::Tier::kScalar};
  for (const simd::Tier t : {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (simd::tierSupported(t)) out.push_back(t);
  }
  return out;
}

// The odd-shaped grids the SIMD tails must handle: degenerate single
// row/column strips, a non-multiple-of-4 rectangle, and a 33x33 whose rows
// are one past the AVX2 block width.
const std::vector<std::pair<int, int>> kOddGrids = {
    {1, 9}, {9, 1}, {5, 7}, {33, 33}};

// Property: every supported SIMD tier produces bit-identical solver output
// — totals, node sequences, tie-breaks — on odd grid shapes whose column
// counts exercise the vector tails. The scalar tier is the oracle.
TEST(SimdTierIdentity, ManhattanSolveBitIdenticalAcrossTiersOnOddGrids) {
  const TierGuard guard;
  testutil::Rng rng(505);
  for (const auto& [rows, cols] : kOddGrids) {
    const Grid g(rows, cols);
    const int layers = 4;
    const std::vector<Cost> nodeTable =
        randomNodeTable(rng, layers, g.size());
    for (const Cost beta : {Cost{0}, Cost{1}, Cost{3}}) {
      simd::forceTier(simd::Tier::kScalar);
      const LayeredPath expect =
          testutil::solveManhattanCold(g, layers, nodeTable, beta);
      for (const simd::Tier t : supportedTiers()) {
        simd::forceTier(t);
        const LayeredPath got =
            testutil::solveManhattanCold(g, layers, nodeTable, beta);
        ASSERT_EQ(got.total, expect.total)
            << rows << "x" << cols << " beta " << beta << " tier "
            << simd::tierName(t);
        ASSERT_EQ(got.nodes, expect.nodes)
            << rows << "x" << cols << " beta " << beta << " tier "
            << simd::tierName(t);
      }
    }
  }
}

// Same property through the generic flat solver with asymmetric faulted
// transition tables — trans(q,p) != trans(p,q), forbidden edges mixed in —
// the regime fault-aware scheduling feeds the solver.
TEST(SimdTierIdentity, AsymmetricFaultedTablesBitIdenticalAcrossTiers) {
  const TierGuard guard;
  testutil::Rng rng(606);
  for (const auto& [rows, cols] : kOddGrids) {
    const Grid g(rows, cols);
    const int nodes = g.size();
    // 33x33 has 1089 nodes; a dense asymmetric table is ~1.2M entries,
    // which the generic kernel sweeps fine but one trial suffices there.
    const int trials = nodes > 256 ? 1 : 4;
    for (int trial = 0; trial < trials; ++trial) {
      const int layers = static_cast<int>(rng.range(2, 5));
      const std::vector<Cost> nodeTable =
          randomNodeTable(rng, layers, nodes);
      std::vector<Cost> trans(static_cast<std::size_t>(nodes) *
                              static_cast<std::size_t>(nodes));
      for (Cost& c : trans) {
        c = rng.below(7) == 0 ? kInfiniteCost : rng.range(0, 25);
      }
      simd::forceTier(simd::Tier::kScalar);
      const LayeredPath expect =
          testutil::solveTableCold(layers, nodes, nodeTable, trans);
      for (const simd::Tier t : supportedTiers()) {
        simd::forceTier(t);
        const LayeredPath got =
            testutil::solveTableCold(layers, nodes, nodeTable, trans);
        ASSERT_EQ(got.total, expect.total)
            << rows << "x" << cols << " trial " << trial << " tier "
            << simd::tierName(t);
        ASSERT_EQ(got.nodes, expect.nodes)
            << rows << "x" << cols << " trial " << trial << " tier "
            << simd::tierName(t);
      }
    }
  }
}

// The saturating huge-beta fallback must also be tier-invariant: beta past
// the branch-free overflow guard routes the sweep through satAddMinRow and
// the saturating reconstruction on every tier.
TEST(SimdTierIdentity, HugeBetaSaturatingPathBitIdenticalAcrossTiers) {
  const TierGuard guard;
  testutil::Rng rng(707);
  for (const auto& [rows, cols] : kOddGrids) {
    const Grid g(rows, cols);
    const Cost steps = 2 * static_cast<Cost>(rows + cols) + 2;
    const Cost beta = (INT64_MAX - kInfiniteCost) / steps + 1;
    const int layers = 3;
    const std::vector<Cost> nodeTable =
        randomNodeTable(rng, layers, g.size());
    simd::forceTier(simd::Tier::kScalar);
    const LayeredPath expect =
        testutil::solveManhattanCold(g, layers, nodeTable, beta);
    for (const simd::Tier t : supportedTiers()) {
      simd::forceTier(t);
      const LayeredPath got =
          testutil::solveManhattanCold(g, layers, nodeTable, beta);
      ASSERT_EQ(got.total, expect.total)
          << rows << "x" << cols << " tier " << simd::tierName(t);
      ASSERT_EQ(got.nodes, expect.nodes)
          << rows << "x" << cols << " tier " << simd::tierName(t);
    }
  }
}

}  // namespace
}  // namespace pimsched
