#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "fault/fault_map.hpp"
#include "kernels/benchmarks.hpp"
#include "pim/memory.hpp"

namespace pimsched {
namespace {

TEST(Experiment, ResolvesPaperCapacity) {
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kLu, g, 8);  // 64 data
  const Experiment exp(t, g);
  EXPECT_EQ(exp.capacity(), 8);  // 2 * ceil(64/16)
}

TEST(Experiment, UnlimitedCapacitySentinel) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.capacity = PipelineConfig::kUnlimited;
  const Experiment exp(t, g, cfg);
  EXPECT_EQ(exp.capacity(), -1);
}

TEST(Experiment, RejectsBadCapacitySentinel) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.capacity = -7;
  EXPECT_THROW(Experiment(t, g, cfg), std::invalid_argument);
}

TEST(Experiment, WindowCountHonoursConfig) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 16);
  PipelineConfig cfg;
  cfg.numWindows = 5;
  const Experiment exp(t, g, cfg);
  EXPECT_EQ(exp.refs().numWindows(), 5);
}

TEST(Experiment, AllMethodsProduceValidSchedules) {
  const Grid g(4, 4);
  const ReferenceTrace t =
      makePaperBenchmark(PaperBenchmark::kMatSquare, g, 8);
  const Experiment exp(t, g);
  for (const Method m :
       {Method::kRowWise, Method::kColWise, Method::kBlock2D,
        Method::kCyclic2D, Method::kRandom, Method::kScds, Method::kLomcds,
        Method::kGomcds, Method::kGroupedLomcds, Method::kGroupedOptimal}) {
    const DataSchedule s = exp.schedule(m);
    EXPECT_TRUE(s.complete()) << toString(m);
    EXPECT_TRUE(s.respectsCapacity(g, exp.capacity())) << toString(m);
  }
}

// The paper's headline ordering on every benchmark: each proposed scheme
// beats the straight-forward distribution, and GOMCDS <= LOMCDS-with-
// grouping <= plain LOMCDS in total cost.
class PaperOrdering : public ::testing::TestWithParam<PaperBenchmark> {};

TEST_P(PaperOrdering, ProposedSchemesBeatStraightForward) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(GetParam(), g, 8);
  const Experiment exp(t, g);
  const Cost sf = exp.evaluate(Method::kRowWise).aggregate.total();
  const Cost scds = exp.evaluate(Method::kScds).aggregate.total();
  const Cost lomcds = exp.evaluate(Method::kLomcds).aggregate.total();
  const Cost gomcds = exp.evaluate(Method::kGomcds).aggregate.total();
  EXPECT_LT(scds, sf) << toString(GetParam());
  EXPECT_LT(gomcds, sf);
  EXPECT_LE(gomcds, lomcds);
  EXPECT_LE(gomcds, scds);
}

TEST_P(PaperOrdering, GroupingImprovesLomcds) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(GetParam(), g, 8);
  const Experiment exp(t, g);
  const Cost lomcds = exp.evaluate(Method::kLomcds).aggregate.total();
  const Cost grouped =
      exp.evaluate(Method::kGroupedLomcds).aggregate.total();
  const Cost gomcds = exp.evaluate(Method::kGomcds).aggregate.total();
  EXPECT_LE(grouped, lomcds) << toString(GetParam());
  EXPECT_LE(gomcds, grouped);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PaperOrdering,
                         ::testing::ValuesIn(allPaperBenchmarks()),
                         [](const auto& info) {
                           std::string n = toString(info.param);
                           for (char& c : n) {
                             if (c == ':' || c == '+' || c == '-') c = '_';
                           }
                           return n;
                         });

TEST(ImprovementPct, Formula) {
  EXPECT_DOUBLE_EQ(improvementPct(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(improvementPct(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(improvementPct(100, 120), -20.0);
  EXPECT_DOUBLE_EQ(improvementPct(0, 5), 0.0);
}

TEST(Experiment, RejectsEmptyTrace) {
  const Grid g(2, 2);
  ReferenceTrace empty(DataSpace::singleSquare(2));
  empty.finalize();
  EXPECT_THROW(Experiment(empty, g), std::invalid_argument);
}

TEST(Experiment, ExplicitWindowsMustMatchTrace) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  PipelineConfig cfg;
  cfg.explicitWindows = WindowPartition::whole(t.numSteps() + 5);
  EXPECT_THROW(Experiment(t, g, cfg), std::invalid_argument);
}

TEST(Experiment, RandomAndColwiseBaselinesEvaluate) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  const Experiment exp(t, g);
  EXPECT_GT(exp.evaluate(Method::kRandom).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kColWise).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kCyclic2D).aggregate.total(), 0);
  EXPECT_GT(exp.evaluate(Method::kBlock2D).aggregate.total(), 0);
}

TEST(Experiment, EvaluateMatchesManualEvaluation) {
  const Grid g(4, 4);
  const ReferenceTrace t = makePaperBenchmark(PaperBenchmark::kLu, g, 8);
  const Experiment exp(t, g);
  const DataSchedule s = exp.schedule(Method::kScds);
  const EvalResult manual = evaluateSchedule(s, exp.refs(), exp.costModel());
  const EvalResult viaExp = exp.evaluate(Method::kScds);
  EXPECT_EQ(manual.aggregate.total(), viaExp.aggregate.total());
}

/// One datum on a 2x2 grid (max hop distance 2), referenced in one step
/// with `weight` from processor 0 and weight 1 from processor 3, so every
/// serving-cost table entry multiplies a large weight by a distance.
ReferenceTrace heavyTrace(Cost weight) {
  ReferenceTrace t(DataSpace::singleSquare(1));
  t.add(0, 0, 0, weight);
  t.add(0, 3, 0, 1);
  t.finalize();
  return t;
}

// Cost bound of heavyTrace(w) on 2x2 with one window and unit costs is
// (w + 1) x 2 serving plus 1 x 2 moving; this is the largest w keeping it
// below kInfiniteCost (which is odd).
constexpr Cost kHeaviestAccepted = (kInfiniteCost - 5) / 2;

TEST(Experiment, RejectsWeightsWhoseCostsCouldOverflow) {
  const Grid g(2, 2);
  // The loader accepts any total weight up to INT64_MAX, but weight x
  // distance would overflow in the serving-cost tables.
  EXPECT_THROW(Experiment(heavyTrace(INT64_MAX / 2), g), std::invalid_argument);
  EXPECT_THROW(Experiment(heavyTrace(kHeaviestAccepted + 1), g),
               std::invalid_argument);
  FaultMap faults(g);
  faults.killProc(1);
  EXPECT_THROW(Experiment(heavyTrace(INT64_MAX / 2), g, faults),
               std::invalid_argument);
  // Huge cost parameters overflow just the same.
  PipelineConfig cfg;
  cfg.costParams.hopCost = INT64_MAX / 2;
  EXPECT_THROW(Experiment(heavyTrace(1), g, cfg), std::invalid_argument);
  cfg.costParams.hopCost = 1;
  cfg.costParams.moveVolume = INT64_MAX / 3;
  EXPECT_THROW(Experiment(heavyTrace(1), g, cfg), std::invalid_argument);
}

TEST(Experiment, HeaviestAcceptedWeightSchedulesWithFiniteCosts) {
  const Grid g(2, 2);
  const ReferenceTrace t = heavyTrace(kHeaviestAccepted);
  const Experiment exp(t, g);
  for (const Method m : {Method::kGomcds, Method::kLomcds, Method::kScds,
                         Method::kGroupedGomcds}) {
    const EvalResult eval = exp.evaluate(m);
    // The heavy reference pulls the center to processor 0; the light one
    // then costs 2 hops.
    EXPECT_EQ(eval.aggregate.total(), 2) << toString(m);
  }
}

TEST(StreamSession, RejectsWeightsWhoseCostsCouldOverflow) {
  StreamSession session(2, 2);
  EXPECT_THROW((void)session.step(heavyTrace(INT64_MAX / 2)),
               std::invalid_argument);
  const StreamStepResult ok = session.step(heavyTrace(kHeaviestAccepted));
  EXPECT_EQ(ok.eval.aggregate.total(), 2);
}

}  // namespace
}  // namespace pimsched
