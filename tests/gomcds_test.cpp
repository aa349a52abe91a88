#include "core/gomcds.hpp"

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/exhaustive.hpp"
#include "core/lomcds.hpp"
#include "core/pipeline.hpp"
#include "core/scds.hpp"
#include "kernels/benchmarks.hpp"
#include "obs/obs.hpp"
#include "solver_test_util.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(Gomcds, StaysPutWhenMovementDominates) {
  const Grid g(1, 4);
  CostParams params;
  params.moveVolume = 100;  // migrating is prohibitively expensive
  const CostModel model(g, params);
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 1);
  t.add(1, 3, 0, 1);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const DataSchedule s = scheduleGomcds(refs, model);
  EXPECT_EQ(s.center(0, 0), s.center(0, 1));
}

TEST(Gomcds, MovesWhenReferencesDominate) {
  const Grid g(1, 4);
  const CostModel model(g);  // moveVolume 1
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, 10);
  t.add(1, 3, 0, 10);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 2);
  const DataSchedule s = scheduleGomcds(refs, model);
  EXPECT_EQ(s.center(0, 0), 0);
  EXPECT_EQ(s.center(0, 1), 3);
}

TEST(Gomcds, NeverWorseThanLomcdsOrScds) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(51);
  for (int trial = 0; trial < 8; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 4, 4, 16, 25);
    const WindowedRefs refs = refsFromTrace(t, g, 4);
    const Cost go =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost lo =
        evaluateSchedule(scheduleLomcds(refs, model), refs, model)
            .aggregate.total();
    const Cost sc =
        evaluateSchedule(scheduleScds(refs, model), refs, model)
            .aggregate.total();
    EXPECT_LE(go, lo);
    EXPECT_LE(go, sc);
  }
}

TEST(Gomcds, MatchesExhaustiveOptimumUncapacitated) {
  // DESIGN.md invariant 4: on small instances GOMCDS equals the brute
  // force optimum per datum.
  const Grid g(2, 3);
  const CostModel model(g);
  testutil::Rng rng(52);
  for (int trial = 0; trial < 6; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 8, 10);
    const WindowedRefs refs = refsFromTrace(t, g, 4);
    const EvalResult go =
        evaluateSchedule(scheduleGomcds(refs, model), refs, model);
    const EvalResult ex =
        evaluateSchedule(scheduleExhaustive(refs, model), refs, model);
    EXPECT_EQ(go.aggregate.total(), ex.aggregate.total());
  }
}

TEST(Gomcds, NaiveEngineProducesIdenticalSchedule) {
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(53);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 12, 18);
  const WindowedRefs refs = refsFromTrace(t, g, 5);
  SchedulerOptions opts;
  opts.capacity = 4;
  const DataSchedule fast =
      scheduleGomcds(refs, model, opts, GomcdsEngine::kChamfer);
  const DataSchedule naive =
      scheduleGomcds(refs, model, opts, GomcdsEngine::kNaive);
  for (DataId d = 0; d < refs.numData(); ++d) {
    for (WindowId w = 0; w < refs.numWindows(); ++w) {
      ASSERT_EQ(fast.center(d, w), naive.center(d, w));
    }
  }
}

TEST(Gomcds, CapacityRespectedPerWindow) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(54);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 8, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 4);
  SchedulerOptions opts;
  opts.capacity = 3;
  const DataSchedule s = scheduleGomcds(refs, model, opts);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(s.respectsCapacity(g, 3));
}

TEST(Gomcds, CapacityCannotImproveCost) {
  // Adding a capacity constraint can only increase the optimal cost.
  const Grid g(3, 3);
  const CostModel model(g);
  testutil::Rng rng(55);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 10, 20);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const Cost unconstrained =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total();
  SchedulerOptions opts;
  opts.capacity = 2;
  const Cost constrained =
      evaluateSchedule(scheduleGomcds(refs, model, opts), refs, model)
          .aggregate.total();
  EXPECT_GE(constrained, unconstrained);
}

TEST(Gomcds, ExactFitCapacityAccountingStaysConsistent) {
  // Regression for the tryPlace-result check: at the tightest feasible
  // capacity (data exactly fill the array) every slot is claimed, so any
  // drift between the solver's view and the occupancy maps would surface
  // as the scheduler's internal logic_error. A clean run proves the two
  // stay in lock-step.
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(57);
  for (int trial = 0; trial < 3; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 2, 2, 4, 16);
    const WindowedRefs refs = refsFromTrace(t, g, 3);
    SchedulerOptions opts;
    opts.capacity = 1;  // 4 data on 4 processors: exact fit
    const DataSchedule s = scheduleGomcds(refs, model, opts);
    EXPECT_TRUE(s.complete());
    EXPECT_TRUE(s.respectsCapacity(g, 1));
  }
}

TEST(Gomcds, InfeasibleCapacityThrows) {
  const Grid g(1, 2);
  const CostModel model(g);
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  const WindowedRefs refs = refsFromTrace(t, g, 1);
  SchedulerOptions opts;
  opts.capacity = 1;
  EXPECT_THROW(scheduleGomcds(refs, model, opts), std::runtime_error);
}

void expectIdenticalSchedules(const DataSchedule& a, const DataSchedule& b,
                              const char* what) {
  ASSERT_EQ(a.numData(), b.numData());
  ASSERT_EQ(a.numWindows(), b.numWindows());
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w))
          << what << ": datum " << d << " window " << w;
    }
  }
}

TEST(Gomcds, DedupProducesIdenticalSchedulesOnMatmul) {
  // Matmul rows share reference strings, so the driver collapses them into
  // equivalence classes that share serve tables (and, uncapacitated, one
  // solved path). The schedule must stay bit-identical to the share-nothing
  // per-datum reference, with and without capacity pressure, on one thread
  // and on four.
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  PipelineConfig cfg;
  cfg.numWindows = 8;
  const Experiment exp(t, g, cfg);
  for (const std::int64_t capacity : {std::int64_t{-1}, exp.capacity()}) {
    const SchedulerOptions opts{capacity, cfg.order};
    const DataSchedule reference =
        testutil::referenceGomcds(exp.refs(), exp.costModel(), opts);
    for (const unsigned threads : {1u, 4u}) {
      const DataSchedule shared =
          scheduleGomcds(exp.refs(), exp.costModel(), opts,
                         GomcdsEngine::kChamfer, threads);
      expectIdenticalSchedules(
          reference, shared,
          capacity < 0 ? (threads == 1 ? "uncapacitated" : "parallel uncap")
                       : (threads == 1 ? "capacitated" : "parallel cap"));
    }
  }
}

#ifdef PIMSCHED_NO_OBS
#define PIMSCHED_OBS_TEST_GUARD() \
  GTEST_SKIP() << "instrumentation compiled out (PIMSCHED_NO_OBS)"
#else
#define PIMSCHED_OBS_TEST_GUARD() \
  do {                            \
  } while (0)
#endif

TEST(Gomcds, DedupCountersTrackClassesAndTransTableBuiltOnce) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  PipelineConfig cfg;
  cfg.numWindows = 8;
  const Experiment exp(t, g, cfg);

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  (void)scheduleGomcds(exp.refs(), exp.costModel());
  const std::int64_t classes =
      registry.counterValue("gomcds.dedup.classes");
  const std::int64_t deduped = registry.counterValue("gomcds.dedup.data");
  EXPECT_GT(classes, 1);
  EXPECT_LT(classes, exp.refs().numData());  // matmul rows really collapse
  EXPECT_EQ(classes + deduped, exp.refs().numData());
  // Static forbidden set: one flat solve per class, not per datum.
  EXPECT_EQ(registry.counterValue("gomcds.flat.solves"), classes);

  // The naive engine materializes the transition matrix exactly once per
  // call — the per-datum transition-lambda path is gone.
  registry.reset();
  (void)scheduleGomcds(exp.refs(), exp.costModel(), SchedulerOptions{},
                       GomcdsEngine::kNaive);
  EXPECT_EQ(registry.counterValue("gomcds.trans_table.builds"), 1);
  registry.reset();
}

TEST(Gomcds, ZeroMoveVolumeDegeneratesToLomcdsServeCost) {
  // With free movement GOMCDS serves every window at its local optimum.
  const Grid g(3, 3);
  CostParams params;
  params.moveVolume = 0;
  const CostModel model(g, params);
  testutil::Rng rng(56);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 9, 15);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  const EvalResult go =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model);
  const EvalResult lo =
      evaluateSchedule(scheduleLomcds(refs, model), refs, model);
  EXPECT_EQ(go.aggregate.serve, lo.aggregate.serve);
  EXPECT_EQ(go.aggregate.move, 0);
}

}  // namespace
}  // namespace pimsched
