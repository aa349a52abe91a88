// End-to-end fault-aware scheduling: the Experiment fault constructor
// threaded through SCDS / LOMCDS / GOMCDS, the bit-identity guarantee for
// empty fault maps, the typed failure taxonomy, and the replay invariant
// over faulted topologies.

#include <gtest/gtest.h>

#include "core/gomcds.hpp"
#include "core/pipeline.hpp"
#include "core/verify.hpp"
#include "fault/fault_map.hpp"
#include "sim/replay.hpp"
#include "solver_test_util.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

using testutil::Rng;

ReferenceTrace makeTrace(std::uint64_t seed, const Grid& grid) {
  Rng rng(seed);
  return testutil::randomTrace(rng, grid, 6, 6, /*numSteps=*/12,
                               /*refsPerStep=*/10);
}

const std::vector<Method>& faultAwareMethods() {
  static const std::vector<Method> methods = {Method::kScds, Method::kLomcds,
                                              Method::kGomcds};
  return methods;
}

TEST(FaultSched, EmptyFaultMapIsBitIdentical) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(11, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  const Experiment plain(trace, grid, cfg);
  const FaultMap empty(grid);
  const Experiment faulted(trace, grid, empty, cfg);

  EXPECT_EQ(plain.capacity(), faulted.capacity());
  for (const Method m : faultAwareMethods()) {
    const DataSchedule a = plain.schedule(m);
    const DataSchedule b = faulted.schedule(m);
    for (DataId d = 0; d < a.numData(); ++d) {
      for (WindowId w = 0; w < a.numWindows(); ++w) {
        ASSERT_EQ(a.center(d, w), b.center(d, w))
            << toString(m) << " datum " << d << " window " << w;
      }
    }
    EXPECT_EQ(plain.evaluate(m).aggregate.total(),
              faulted.evaluate(m).aggregate.total());
  }
}

TEST(FaultSched, DeadProcessorsAreNeverCenters) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(23, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.killProc(5);
  faults.killProc(10);
  faults.killLink(0, 1);
  const Experiment exp(trace, grid, faults, cfg);

  for (const Method m : faultAwareMethods()) {
    const DataSchedule schedule = exp.schedule(m);
    for (DataId d = 0; d < schedule.numData(); ++d) {
      for (WindowId w = 0; w < schedule.numWindows(); ++w) {
        EXPECT_NE(schedule.center(d, w), 5) << toString(m);
        EXPECT_NE(schedule.center(d, w), 10) << toString(m);
      }
    }
    const VerifyReport report =
        verifyScheduleFaults(schedule, exp.refs(), exp.costModel());
    EXPECT_TRUE(report.ok())
        << toString(m) << ": " << report.issues.size() << " issues, first: "
        << (report.issues.empty() ? "" : report.issues.front().detail);
  }
}

TEST(FaultSched, MaskedRefsDropDeadProcessors) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(31, grid);
  PipelineConfig cfg;
  cfg.numWindows = 3;
  FaultMap faults(grid);
  faults.killProc(7);
  const Experiment exp(trace, grid, faults, cfg);
  for (DataId d = 0; d < exp.refs().numData(); ++d) {
    for (WindowId w = 0; w < exp.refs().numWindows(); ++w) {
      for (const ProcWeight& pw : exp.refs().refs(d, w)) {
        EXPECT_NE(pw.proc, 7);
      }
    }
  }
}

TEST(FaultSched, PaperCapacityCountsOnlyAliveProcessors) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(47, grid);  // 36 data
  PipelineConfig cfg;
  cfg.numWindows = 2;
  FaultMap faults(grid);
  faults.killRegion(0, 0, 1, 2);  // 6 dead -> 10 alive
  const Experiment exp(trace, grid, faults, cfg);
  const std::int64_t numData = trace.dataSpace().numData();
  const std::int64_t alive = 10;
  EXPECT_EQ(exp.capacity(), 2 * ((numData + alive - 1) / alive));
}

TEST(FaultSched, AllProcessorsDeadThrowsUnreachable) {
  const Grid grid(2, 2);
  const ReferenceTrace trace = makeTrace(5, grid);
  FaultMap faults(grid);
  for (ProcId p = 0; p < grid.size(); ++p) faults.killProc(p);
  EXPECT_THROW(Experiment(trace, grid, faults, PipelineConfig{}),
               UnreachableError);
}

TEST(FaultSched, CrossPartitionReferencesThrowUnreachable) {
  const Grid grid(4, 4);
  // One datum referenced from row 0 and row 3; killing row 1 cuts them
  // apart, so no center can serve both sides.
  ReferenceTrace trace(DataSpace::singleSquare(2, "A"));
  trace.add(0, grid.id(0, 0), 0, 3);
  trace.add(0, grid.id(3, 3), 0, 3);
  trace.finalize();
  FaultMap faults(grid);
  faults.killRow(1);
  PipelineConfig cfg;
  cfg.numWindows = 1;
  const Experiment exp(trace, grid, faults, cfg);
  for (const Method m : faultAwareMethods()) {
    EXPECT_THROW((void)exp.schedule(m), UnreachableError) << toString(m);
  }
}

TEST(FaultSched, FaultObliviousBaselineFailsFaultVerify) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(61, grid);
  PipelineConfig cfg;
  cfg.numWindows = 2;
  cfg.capacity = PipelineConfig::kUnlimited;
  FaultMap faults(grid);
  faults.killProc(0);
  const Experiment exp(trace, grid, faults, cfg);
  // Row-wise places data by index, oblivious to the dead processor: the
  // fault verifier must catch the dead center.
  const DataSchedule schedule = exp.schedule(Method::kRowWise);
  const VerifyReport report =
      verifyScheduleFaults(schedule, exp.refs(), exp.costModel());
  EXPECT_FALSE(report.ok());
  bool sawDeadCenter = false;
  for (const ScheduleIssue& issue : report.issues) {
    if (issue.kind == ScheduleIssue::Kind::kDeadCenter) sawDeadCenter = true;
  }
  EXPECT_TRUE(sawDeadCenter);
}

TEST(FaultSched, ReplayHopVolumeMatchesAnalyticCostUnderFaults) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(83, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.killProc(6);
  faults.killLink(1, 2);
  const Experiment exp(trace, grid, faults, cfg);
  for (const Method m : faultAwareMethods()) {
    const DataSchedule schedule = exp.schedule(m);
    const EvalResult eval =
        evaluateSchedule(schedule, exp.refs(), exp.costModel());
    const ReplayReport replay =
        replaySchedule(schedule, exp.refs(), exp.costModel());
    // Invariant 10 extended to faulted meshes: simulated hop volume over
    // the detoured routes equals the analytic fault-aware cost.
    EXPECT_EQ(replay.total.totalHopVolume, eval.aggregate.total())
        << toString(m);
  }
}

TEST(FaultSched, GomcdsDedupIdenticalUnderFaults) {
  // Class sharing must stay bit-identical to the share-nothing reference
  // on faulted meshes too — both in the static-mask regime (dead
  // processors only: infinite serving cost keeps the forbidden set fixed)
  // and the dynamic one (an alive processor with a reduced capacity limit
  // forces per-datum masked solves).
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(131, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap deadOnly(grid);
  deadOnly.killProc(3);
  deadOnly.killProc(12);
  FaultMap limited(grid);
  limited.killProc(3);
  limited.limitCapacity(7, 2);
  for (const FaultMap* faults : {&deadOnly, &limited}) {
    const Experiment exp(trace, grid, *faults, cfg);
    for (const std::int64_t capacity : {std::int64_t{-1}, exp.capacity()}) {
      const SchedulerOptions opts{capacity, cfg.order};
      const DataSchedule reference =
          testutil::referenceGomcds(exp.refs(), exp.costModel(), opts);
      for (const unsigned threads : {1u, 4u}) {
        const DataSchedule shared =
            scheduleGomcds(exp.refs(), exp.costModel(), opts,
                           GomcdsEngine::kChamfer, threads);
        for (DataId d = 0; d < reference.numData(); ++d) {
          for (WindowId w = 0; w < reference.numWindows(); ++w) {
            ASSERT_EQ(reference.center(d, w), shared.center(d, w))
                << "class sharing diverged from the reference at " << threads
                << " threads";
          }
        }
      }
    }
  }
}

TEST(FaultSched, GomcdsEnginesAgreeUnderFaults) {
  const Grid grid(4, 4);
  const ReferenceTrace trace = makeTrace(97, grid);
  PipelineConfig cfg;
  cfg.numWindows = 4;
  FaultMap faults(grid);
  faults.injectUniformProcs(2, 9);
  const Experiment seq(trace, grid, faults, cfg);
  PipelineConfig par = cfg;
  par.threads = 4;
  const Experiment parallel(trace, grid, faults, par);
  const DataSchedule a = seq.schedule(Method::kGomcds);
  const DataSchedule b = parallel.schedule(Method::kGomcds);
  for (DataId d = 0; d < a.numData(); ++d) {
    for (WindowId w = 0; w < a.numWindows(); ++w) {
      ASSERT_EQ(a.center(d, w), b.center(d, w));
    }
  }
}

}  // namespace
}  // namespace pimsched
