#include "core/gomcds.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/evaluator.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

WindowedRefs refsFromTrace(const ReferenceTrace& t, const Grid& g,
                           int windows) {
  return WindowedRefs(t, WindowPartition::evenCount(t.numSteps(), windows),
                      g);
}

TEST(ParallelGomcds, BitIdenticalToSequential) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(191);
  for (int trial = 0; trial < 4; ++trial) {
    const ReferenceTrace t = testutil::randomTrace(rng, g, 5, 5, 16, 30);
    const WindowedRefs refs = refsFromTrace(t, g, 8);
    const DataSchedule seq = scheduleGomcds(refs, model);
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
      const DataSchedule par =
          scheduleGomcds(refs, model, {}, GomcdsEngine::kChamfer, threads);
      for (DataId d = 0; d < refs.numData(); ++d) {
        for (WindowId w = 0; w < refs.numWindows(); ++w) {
          ASSERT_EQ(par.center(d, w), seq.center(d, w))
              << "threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelGomcds, MoreThreadsThanDataIsFine) {
  const Grid g(2, 2);
  const CostModel model(g);
  DataSpace ds;
  ds.addArray("A", 1, 2);
  ReferenceTrace t(ds);
  t.add(0, 0, 0, 1);
  t.add(0, 3, 1, 2);
  t.finalize();
  const WindowedRefs refs(t, WindowPartition::whole(1), g);
  const DataSchedule s =
      scheduleGomcds(refs, model, {}, GomcdsEngine::kChamfer, 16);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.center(0, 0), 0);
  EXPECT_EQ(s.center(1, 0), 3);
}

TEST(ParallelGomcds, BitIdenticalToSequentialWithCapacity) {
  // Under capacity the driver must honor the constraint and reproduce the
  // sequential schedule exactly, for every thread count and both visit
  // orders.
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(293);
  for (const DataOrder order : {DataOrder::kById, DataOrder::kByWeightDesc}) {
    for (int trial = 0; trial < 3; ++trial) {
      const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 24, 50);
      const WindowedRefs refs = refsFromTrace(t, g, 6);
      // Tight capacity: the minimum slots per processor that can hold all
      // data, which forces real conflicts between optimal paths.
      const std::int64_t tight =
          (refs.numData() + g.size() - 1) / g.size();
      for (const std::int64_t cap : {tight, tight + 1}) {
        const SchedulerOptions opts{cap, order};
        const DataSchedule seq = scheduleGomcds(refs, model, opts);
        for (const unsigned threads : {1u, 2u, 4u, 0u}) {
          const DataSchedule par = scheduleGomcds(
              refs, model, opts, GomcdsEngine::kChamfer, threads);
          for (DataId d = 0; d < refs.numData(); ++d) {
            for (WindowId w = 0; w < refs.numWindows(); ++w) {
              ASSERT_EQ(par.center(d, w), seq.center(d, w))
                  << "threads=" << threads << " cap=" << cap
                  << " order=" << static_cast<int>(order);
            }
          }
          ASSERT_TRUE(par.respectsCapacity(g, cap));
          ASSERT_EQ(evaluateSchedule(par, refs, model).aggregate.total(),
                    evaluateSchedule(seq, refs, model).aggregate.total());
        }
      }
    }
  }
}

TEST(ParallelGomcds, InfeasibleCapacityThrowsLikeSequential) {
  const Grid g(2, 2);
  const CostModel model(g);
  testutil::Rng rng(77);
  // 9 data on 4 processors with capacity 2: one datum cannot be placed.
  const ReferenceTrace t = testutil::randomTrace(rng, g, 3, 3, 6, 12);
  const WindowedRefs refs = refsFromTrace(t, g, 3);
  ASSERT_EQ(refs.numData(), 9);
  const SchedulerOptions opts{2, DataOrder::kById};
  EXPECT_THROW((void)scheduleGomcds(refs, model, opts), std::runtime_error);
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW((void)scheduleGomcds(refs, model, opts,
                                      GomcdsEngine::kChamfer, threads),
                 std::runtime_error);
  }
}

TEST(ParallelGomcds, CostEqualsSequentialOptimal) {
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(192);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 20, 40);
  const WindowedRefs refs = refsFromTrace(t, g, 10);
  const Cost seq =
      evaluateSchedule(scheduleGomcds(refs, model), refs, model)
          .aggregate.total();
  const Cost par =
      evaluateSchedule(
          scheduleGomcds(refs, model, {}, GomcdsEngine::kChamfer, 0), refs,
          model)
          .aggregate.total();
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace pimsched
