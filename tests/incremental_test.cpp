#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/gomcds.hpp"
#include "core/gomcds_detail.hpp"
#include "core/pipeline.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "fault/fault_trace.hpp"
#include "graph/layered_dag.hpp"
#include "solver_test_util.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

void expectSameSchedule(const DataSchedule& a, const DataSchedule& b) {
  ASSERT_EQ(a.numData(), b.numData());
  ASSERT_EQ(a.numWindows(), b.numWindows());
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w))
          << "datum " << d << " window " << w;
    }
  }
}

/// One access per (window, ref): steps == windows, so mutating the entry
/// list of step w changes exactly window w's reference strings.
struct StreamWorkload {
  struct Entry {
    ProcId proc;
    DataId data;
    Cost weight;
  };

  StreamWorkload(testutil::Rng& rng, const Grid& grid, DataId numData,
                 int numWindows, int refsPerWindow)
      : numData_(numData), grid_(&grid) {
    steps_.resize(static_cast<std::size_t>(numWindows));
    for (auto& step : steps_) step = randomStep(rng, refsPerWindow);
  }

  std::vector<Entry> randomStep(testutil::Rng& rng, int refsPerWindow) {
    std::vector<Entry> out;
    for (int i = 0; i < refsPerWindow; ++i) {
      out.push_back(Entry{
          static_cast<ProcId>(rng.below(
              static_cast<std::uint64_t>(grid_->size()))),
          static_cast<DataId>(rng.below(static_cast<std::uint64_t>(numData_))),
          static_cast<Cost>(rng.range(1, 5))});
    }
    return out;
  }

  /// Replaces the last `suffix` windows with fresh random references.
  void churnTail(testutil::Rng& rng, int suffix, int refsPerWindow) {
    for (std::size_t w = steps_.size() - static_cast<std::size_t>(suffix);
         w < steps_.size(); ++w) {
      steps_[w] = randomStep(rng, refsPerWindow);
    }
  }

  [[nodiscard]] ReferenceTrace trace() const {
    // numData_ data in one square-ish array (ids just need to cover range).
    int side = 1;
    while (side * side < numData_) ++side;
    ReferenceTrace t(DataSpace::singleSquare(side, "A"));
    for (std::size_t w = 0; w < steps_.size(); ++w) {
      for (const Entry& e : steps_[w]) {
        t.add(static_cast<StepId>(w), e.proc, e.data, e.weight);
      }
    }
    // Touch every datum once so numData is stable across revisions.
    for (DataId d = 0; d < numData_; ++d) t.add(0, 0, d, 1);
    t.finalize();
    return t;
  }

  [[nodiscard]] WindowedRefs refs(const Grid& grid) const {
    const ReferenceTrace t = trace();
    return WindowedRefs(
        t, WindowPartition::evenCount(t.numSteps(),
                                      static_cast<int>(steps_.size())),
        grid);
  }

  DataId numData_;
  const Grid* grid_;
  std::vector<std::vector<Entry>> steps_;
};

TEST(Incremental, BitIdenticalToColdOnEveryPrefixHealthy) {
  const Grid g(6, 6);
  const CostModel model(g);
  testutil::Rng rng(901);
  StreamWorkload work(rng, g, 20, 8, 40);
  IncrementalSolver solver;
  for (int stream = 0; stream < 6; ++stream) {
    const WindowedRefs refs = work.refs(g);
    const DataSchedule warm = solver.solve(refs, model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold) << "stream step " << stream;
      EXPECT_GT(solver.lastStats().reusedLayers, 0);
    }
    work.churnTail(rng, 2, 40);
  }
}

TEST(Incremental, BitIdenticalWithStableFaults) {
  const Grid g(5, 5);
  FaultMap faults(g);
  faults.killProc(7);
  faults.killProc(12);
  faults.killLink(2, 3);
  const DistanceMap distances(g, faults);
  const CostModel model(g, distances);
  testutil::Rng rng(902);
  StreamWorkload work(rng, g, 12, 6, 30);
  IncrementalSolver solver;
  for (int stream = 0; stream < 5; ++stream) {
    const WindowedRefs refs =
        work.refs(g).withProcsMasked(faults.deadProcMask());
    const DataSchedule warm = solver.solve(refs, model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold);
    }
    work.churnTail(rng, 1, 30);
  }
}

// Warm steps — refined classes, resumed dp tables, shared paths — must
// match the share-nothing per-datum reference on every step, here under
// heaviest-first visit order. Data d and d + 10 start as twins (one class
// per pair) and their tails churn independently, so warm steps must split
// the retained classes.
TEST(Incremental, BitIdenticalWithDedupOffAndWeightOrder) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(903);
  const DataId half = 10;
  const int W = 5;
  StreamWorkload work(rng, g, half, W, 25);
  StreamWorkload twin = work;
  const auto twinRefs = [&] {
    ReferenceTrace t(DataSpace::singleSquare(5, "A"));
    for (int w = 0; w < W; ++w) {
      for (const StreamWorkload::Entry& e :
           work.steps_[static_cast<std::size_t>(w)]) {
        t.add(w, e.proc, e.data, e.weight);
      }
      for (const StreamWorkload::Entry& e :
           twin.steps_[static_cast<std::size_t>(w)]) {
        t.add(w, e.proc, e.data + half, e.weight);
      }
    }
    for (DataId d = 0; d < 25; ++d) t.add(0, 0, d, 1);
    t.finalize();
    return WindowedRefs(t, WindowPartition::evenCount(W, W), g);
  };
  SchedulerOptions options;
  options.order = DataOrder::kByWeightDesc;
  IncrementalSolver solver;
  for (int stream = 0; stream < 5; ++stream) {
    const WindowedRefs refs = twinRefs();
    expectSameSchedule(solver.solve(refs, model, options),
                       testutil::referenceGomcds(refs, model, options));
    if (stream > 0) {
      EXPECT_FALSE(solver.lastStats().cold);
    }
    work.churnTail(rng, 2, 25);
    if (stream % 2 == 1) twin.churnTail(rng, 1, 25);
  }
}

TEST(Incremental, CapacityConstrainedColdFallsButMatches) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(904);
  StreamWorkload work(rng, g, 12, 4, 30);
  SchedulerOptions options;
  options.capacity = 3;
  IncrementalSolver solver;
  for (int stream = 0; stream < 3; ++stream) {
    const WindowedRefs refs = work.refs(g);
    expectSameSchedule(solver.solve(refs, model, options),
                       scheduleGomcds(refs, model, options));
    EXPECT_TRUE(solver.lastStats().cold);
    work.churnTail(rng, 1, 30);
  }
}

TEST(Incremental, ModelChangeForcesColdAndStaysIdentical) {
  const Grid g(4, 4);
  testutil::Rng rng(905);
  StreamWorkload work(rng, g, 8, 5, 20);
  IncrementalSolver solver;
  const WindowedRefs refs = work.refs(g);
  (void)solver.solve(refs, CostModel(g));
  CostParams heavy;
  heavy.moveVolume = 7;
  const CostModel model2(g, heavy);
  const DataSchedule warm = solver.solve(refs, model2);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(warm, scheduleGomcds(refs, model2));
}

TEST(Incremental, FaultContentChangeIsDetectedWithoutInvalidate) {
  // Same shapes, same object layout — only the fault content differs. The
  // solver's fingerprint must catch it even though invalidate() was never
  // called.
  const Grid g(4, 4);
  testutil::Rng rng(906);
  StreamWorkload work(rng, g, 8, 5, 20);
  FaultMap faults(g);
  const WindowedRefs base = work.refs(g);
  IncrementalSolver solver;
  {
    const DistanceMap d1(g, faults);
    const CostModel m1(g, d1);
    (void)solver.solve(base.withProcsMasked(faults.deadProcMask()), m1);
  }
  faults.killProc(5);
  const DistanceMap d2(g, faults);
  const CostModel m2(g, d2);
  const WindowedRefs masked = base.withProcsMasked(faults.deadProcMask());
  const DataSchedule warm = solver.solve(masked, m2);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(warm, scheduleGomcds(masked, m2));
}

TEST(Incremental, InvalidateDropsRetainedState) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(907);
  StreamWorkload work(rng, g, 6, 4, 15);
  IncrementalSolver solver;
  const WindowedRefs refs = work.refs(g);
  (void)solver.solve(refs, model);
  EXPECT_GT(solver.retainedBytes(), 0u);
  solver.invalidate();
  EXPECT_EQ(solver.retainedBytes(), 0u);
  const DataSchedule after = solver.solve(refs, model);
  EXPECT_TRUE(solver.lastStats().cold);
  expectSameSchedule(after, scheduleGomcds(refs, model));
}

TEST(Incremental, ClassSplitAndReconvergeStayIdentical) {
  const Grid g(4, 4);
  const CostModel model(g);
  const int W = 4;
  // Data 0 and 1 share identical reference strings; datum 1's tail diverges
  // on step 1 (the retained class must split) and converges back on step 2
  // (warm classing is a refinement — split classes stay split until the
  // next cold solve, and the result must stay bit-identical regardless).
  // Data 2 and 3 are untouched ballast that keeps full-state sharing in play.
  auto makeRefs = [&](Cost datum1TailWeight) {
    ReferenceTrace t(DataSpace::singleSquare(2, "A"));
    for (DataId d : {0, 1}) {
      t.add(0, 3, d, 2);
      t.add(1, 7, d, 1);
      t.add(2, 9, d, 4);
    }
    t.add(3, 12, 0, 2);
    t.add(3, 12, 1, datum1TailWeight);
    t.add(0, 5, 2, 3);
    t.add(2, 6, 3, 2);
    t.add(3, 1, 3, 5);
    t.finalize();
    return WindowedRefs(t, WindowPartition::evenCount(W, W), g);
  };

  IncrementalSolver solver;
  int step = 0;
  for (Cost tail : {2, 6, 2}) {  // identical -> split -> reconverged
    const WindowedRefs refs = makeRefs(tail);
    const DataSchedule warm = solver.solve(refs, model);
    const DataSchedule cold = scheduleGomcds(refs, model);
    expectSameSchedule(warm, cold);
    if (step > 0) {
      EXPECT_FALSE(solver.lastStats().cold) << "step " << step;
      EXPECT_GT(solver.lastStats().reusedLayers, 0) << "step " << step;
    }
    ++step;
  }
}

// --- change detector ------------------------------------------------------

WindowedRefs twoWindowRefs(const Grid& g, Cost w0Weight, Cost w1Weight) {
  ReferenceTrace t(DataSpace::singleSquare(1, "A"));
  t.add(0, 1, 0, w0Weight);
  t.add(1, 2, 0, w1Weight);
  t.finalize();
  return WindowedRefs(t, WindowPartition::evenCount(2, 2), g);
}

TEST(IncrementalChangeDetector, FindsFirstChangedWindow) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  const WindowedRefs sameAsA = twoWindowRefs(g, 3, 4);
  const WindowedRefs tailChanged = twoWindowRefs(g, 3, 9);
  const WindowedRefs headChanged = twoWindowRefs(g, 8, 4);
  EXPECT_EQ(firstChangedWindow(a, sameAsA, 0), 2);
  EXPECT_EQ(firstChangedWindow(tailChanged, a, 0), 1);
  EXPECT_EQ(firstChangedWindow(headChanged, a, 0), 0);
}

TEST(IncrementalChangeDetector, ShapeMismatchMeansEverythingChanged) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  ReferenceTrace t(DataSpace::singleSquare(1, "A"));
  t.add(0, 1, 0, 3);
  t.add(1, 2, 0, 4);
  t.add(2, 2, 0, 1);
  t.finalize();
  const WindowedRefs threeWindows(
      t, WindowPartition::evenCount(3, 3), g);
  EXPECT_EQ(firstChangedWindow(a, threeWindows, 0), 0);
}

TEST(IncrementalChangeDetector, SignaturePathAgreesWithDirectComparison) {
  // The solver's internal detection is a direct per-window row comparison;
  // the public firstChangedWindow is the signature-prescreened reference
  // implementation. They must agree on arbitrary streams.
  const Grid g(4, 4);
  testutil::Rng rng(913);
  StreamWorkload work(rng, g, 12, 6, 30);
  const WindowedRefs prev = work.refs(g);
  work.churnTail(rng, 2, 30);
  const WindowedRefs now = work.refs(g);
  for (DataId d = 0; d < now.numData(); ++d) {
    int direct = now.numWindows();
    for (int w = 0; w < now.numWindows(); ++w) {
      if (!now.sameRefsAs(prev, d, w, d, w)) {
        direct = w;
        break;
      }
    }
    EXPECT_EQ(firstChangedWindow(now, prev, d), direct) << "datum " << d;
  }
}

// --- refsSignature collision regressions ----------------------------------
//
// Crafting two genuinely colliding 64-bit FNV-1a inputs is computationally
// infeasible (the byte-wise xor-multiply structure defeats algebraic
// inversion; a meet-in-the-middle search needs ~2^32 work and memory), so
// these tests drive the *production seams* — the exact code paths that run
// after a signature match — with forced-equal signatures and the real full
// comparators. A real collision would take precisely these branches.

TEST(SignatureCollision, EqualSignaturesDifferentRefsDoNotShareDedupClass) {
  const Grid g(2, 2);
  // Two data with different refs in window 1.
  ReferenceTrace t(DataSpace::singleSquare(2, "A"));
  t.add(0, 1, 0, 3);
  t.add(1, 2, 0, 4);
  t.add(0, 1, 1, 3);
  t.add(1, 2, 1, 5);
  t.add(0, 0, 2, 1);  // padding data so numData == 4
  t.add(0, 0, 3, 1);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::evenCount(2, 2), g);
  ASSERT_FALSE(refs.sameRefs(0, 1));

  // Forced collision: every datum hashes to the same signature. The full
  // comparison must still keep data 0 and 1 apart.
  const detail::DedupClasses classes = detail::buildEquivalenceClasses(
      refs.numData(), [](DataId) { return std::uint64_t{42}; },
      [&](DataId rep, DataId d) { return refs.sameRefs(rep, d); });
  EXPECT_NE(classes.classOf[0], classes.classOf[1]);
  // Sanity: the padding data (identical refs) do merge through the same
  // forced-collision bucket.
  EXPECT_EQ(classes.classOf[2], classes.classOf[3]);
}

TEST(SignatureCollision, ChangeDetectorDetectsChangeOnSignatureMatch) {
  const Grid g(2, 2);
  const WindowedRefs now = twoWindowRefs(g, 3, 9);
  const WindowedRefs prev = twoWindowRefs(g, 3, 4);
  // Forced collision: the signature prescreen claims every window is
  // unchanged. The full compare must still flag window 1.
  const int first = detail::firstChangedWindowImpl(
      now.numWindows(), [](int) { return true; },
      [&](int w) { return now.sameRefsAs(prev, 0, w, 0, w); });
  EXPECT_EQ(first, 1);
}

TEST(SignatureCollision, ProductionSignaturesStillPrescreenCorrectly) {
  const Grid g(2, 2);
  const WindowedRefs a = twoWindowRefs(g, 3, 4);
  const WindowedRefs b = twoWindowRefs(g, 3, 9);
  EXPECT_EQ(a.refsSignature(0, 0), b.refsSignature(0, 0));
  EXPECT_NE(a.refsSignature(0, 1), b.refsSignature(0, 1));
  EXPECT_NE(a.refsSignature(0), b.refsSignature(0));
}

// --- resume-capable flat solvers ------------------------------------------

TEST(ResumeSolver, MatchesFullSolveAfterSuffixChange) {
  const Grid g(3, 4);
  const int W = 6;
  const int P = g.size();
  testutil::Rng rng(909);
  std::vector<Cost> costs(static_cast<std::size_t>(W * P));
  for (Cost& c : costs) c = rng.range(0, 40);
  std::vector<Cost> trans(static_cast<std::size_t>(P * P));
  for (ProcId q = 0; q < P; ++q) {
    for (ProcId p = 0; p < P; ++p) {
      trans[static_cast<std::size_t>(q * P + p)] =
          2 * static_cast<Cost>(g.manhattan(q, p));
    }
  }

  LayeredDagScratch scratch;
  CostBuffer dp;
  LayeredPath path;
  LayeredDagSolver::solveTable(W, P, costs, trans, 0, dp, scratch, path);
  for (int from : {3, 1, W - 1}) {
    for (std::size_t i = static_cast<std::size_t>(from * P);
         i < costs.size(); ++i) {
      costs[i] = rng.range(0, 40);
    }
    LayeredDagSolver::solveTable(W, P, costs, trans, from, dp, scratch, path);
    const LayeredPath cold = testutil::solveTableCold(W, P, costs, trans);
    ASSERT_EQ(path.total, cold.total);
    ASSERT_EQ(path.nodes, cold.nodes);
  }
}

TEST(ResumeSolver, ManhattanMatchesFullSolveAfterSuffixChange) {
  const Grid g(4, 4);
  const int W = 5;
  const int P = g.size();
  testutil::Rng rng(910);
  std::vector<Cost> costs(static_cast<std::size_t>(W * P));
  for (Cost& c : costs) c = rng.range(0, 30);

  LayeredDagScratch scratch;
  CostBuffer dp;
  LayeredPath path;
  LayeredDagSolver::solveManhattan(g, W, costs, 3, 0, dp, scratch, path);
  for (int from : {2, 4, 1}) {
    for (std::size_t i = static_cast<std::size_t>(from * P);
         i < costs.size(); ++i) {
      costs[i] = rng.range(0, 30);
    }
    LayeredDagSolver::solveManhattan(g, W, costs, 3, from, dp, scratch, path);
    const LayeredPath cold = testutil::solveManhattanCold(g, W, costs, 3);
    ASSERT_EQ(path.total, cold.total);
    ASSERT_EQ(path.nodes, cold.nodes);
  }
}

TEST(ResumeSolver, ParentCacheReconstructionIsBitIdentical) {
  const Grid g(4, 4);
  const int W = 6;
  const int P = g.size();
  testutil::Rng rng(912);
  std::vector<Cost> costs(static_cast<std::size_t>(W * P));
  for (Cost& c : costs) c = rng.range(0, 30);

  LayeredDagScratch scratch;
  CostBuffer dp;
  LayeredPath path;
  LayeredParentCache parents;  // starts wrong-sized: wholesale reset path
  LayeredDagSolver::solveManhattan(g, W, costs, 3, 0, dp, scratch, path,
                                   &parents);
  EXPECT_EQ(parents.size(), static_cast<std::size_t>(W * P));
  // from == W re-runs only reconstruction: every step walks cached entries.
  // The smaller fromLayer values invalidate and rebuild suffix entries.
  for (int from : {W, 4, 2, W, 1}) {
    for (std::size_t i = static_cast<std::size_t>(from * P); i < costs.size();
         ++i) {
      costs[i] = rng.range(0, 30);
    }
    LayeredDagSolver::solveManhattan(g, W, costs, 3, from, dp, scratch, path,
                                     &parents);
    const LayeredPath cold = testutil::solveManhattanCold(g, W, costs, 3);
    ASSERT_EQ(path.total, cold.total) << "fromLayer " << from;
    ASSERT_EQ(path.nodes, cold.nodes) << "fromLayer " << from;
  }
}

// --- StreamSession --------------------------------------------------------

PipelineConfig streamConfig(int windows) {
  PipelineConfig config;
  config.numWindows = windows;
  config.capacity = PipelineConfig::kUnlimited;
  return config;
}

TEST(StreamSession, MatchesFreshExperimentOnEveryStep) {
  const Grid g(5, 5);
  testutil::Rng rng(911);
  StreamWorkload work(rng, g, 15, 6, 35);
  StreamSession session(5, 5, streamConfig(6));
  for (int stream = 0; stream < 5; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    const Experiment fresh(trace, session.grid(), streamConfig(6));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kGomcds));
    EXPECT_EQ(got.eval.aggregate.total(),
              fresh.evaluate(Method::kGomcds).aggregate.total());
    if (stream > 0) {
      EXPECT_TRUE(got.incremental) << "stream step " << stream;
    }
    work.churnTail(rng, 2, 35);
  }
}

TEST(StreamSession, FaultedSessionMatchesFaultedExperiment) {
  const Grid g(4, 4);
  testutil::Rng rng(912);
  StreamWorkload work(rng, g, 10, 5, 25);
  const std::vector<std::string> specs{"proc:2", "proc:9"};
  StreamSession session(4, 4, streamConfig(5), Method::kGomcds, specs);
  FaultMap faults(g);
  ASSERT_TRUE(applyFaultSpec(faults, "proc:2"));
  ASSERT_TRUE(applyFaultSpec(faults, "proc:9"));
  for (int stream = 0; stream < 4; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    const Experiment fresh(trace, session.grid(), session.faults(),
                           streamConfig(5));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kGomcds));
    work.churnTail(rng, 1, 25);
  }
}

TEST(StreamSession, DriftInvalidatesWarmStateAndStaysIdentical) {
  const Grid g(4, 4);
  testutil::Rng rng(913);
  StreamWorkload work(rng, g, 10, 5, 25);
  StreamSession session(4, 4, streamConfig(5));
  (void)session.step(work.trace());
  EXPECT_EQ(session.driftEpoch(), 0u);
  session.applyDrift({"proc:5"}, false);
  EXPECT_EQ(session.driftEpoch(), 1u);
  EXPECT_TRUE(session.faultAware());

  const ReferenceTrace trace = work.trace();
  const StreamStepResult got = session.step(trace);
  EXPECT_FALSE(got.incremental);  // epoch invalidation: cold under new model
  const Experiment fresh(trace, session.grid(), session.faults(),
                         streamConfig(5));
  expectSameSchedule(got.schedule, fresh.schedule(Method::kGomcds));

  // Second post-drift step goes warm again under the (now stable) faults.
  const StreamStepResult next = session.step(trace);
  EXPECT_TRUE(next.incremental);
  expectSameSchedule(next.schedule, fresh.schedule(Method::kGomcds));
}

TEST(StreamSession, RepairLastPreservesPrefixAfterDrift) {
  const Grid g(4, 4);
  testutil::Rng rng(914);
  StreamWorkload work(rng, g, 8, 4, 30);
  StreamSession session(4, 4, streamConfig(4));
  const StreamStepResult before = session.step(work.trace());

  // Kill the center most data sit on in the last window to force repairs.
  const ProcId victim = before.schedule.center(0, 3);
  session.applyDrift({"proc:" + std::to_string(victim)}, false);
  const StreamRepairResult repaired = session.repairLast(2);
  for (DataId d = 0; d < before.schedule.numData(); ++d) {
    for (WindowId w = 0; w < 2; ++w) {
      EXPECT_EQ(repaired.repair.schedule.center(d, w),
                before.schedule.center(d, w));
    }
  }
  for (DataId d = 0; d < repaired.repair.schedule.numData(); ++d) {
    for (WindowId w = 2; w < 4; ++w) {
      EXPECT_NE(repaired.repair.schedule.center(d, w), victim);
    }
  }
}

TEST(StreamSession, NonGomcdsMethodsAreSupportedButNeverWarm) {
  const Grid g(3, 3);
  testutil::Rng rng(915);
  StreamWorkload work(rng, g, 6, 4, 20);
  StreamSession session(3, 3, streamConfig(4), Method::kLomcds);
  for (int stream = 0; stream < 2; ++stream) {
    const ReferenceTrace trace = work.trace();
    const StreamStepResult got = session.step(trace);
    EXPECT_FALSE(got.incremental);
    const Experiment fresh(trace, session.grid(), streamConfig(4));
    expectSameSchedule(got.schedule, fresh.schedule(Method::kLomcds));
  }
}

TEST(StreamSession, RepairWithoutScheduleThrows) {
  StreamSession session(3, 3, streamConfig(4));
  EXPECT_THROW((void)session.repairLast(), std::logic_error);
}

}  // namespace
}  // namespace pimsched
