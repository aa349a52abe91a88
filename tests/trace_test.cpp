#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace pimsched {
namespace {

ReferenceTrace smallTrace() {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 1, 0, 2);
  t.add(0, 0, 0, 1);
  t.add(1, 2, 3, 1);
  t.finalize();
  return t;
}

TEST(ReferenceTrace, FinalizeSortsByStepDataProc) {
  const ReferenceTrace t = smallTrace();
  ASSERT_EQ(t.accesses().size(), 3u);
  EXPECT_EQ(t.accesses()[0].proc, 0);
  EXPECT_EQ(t.accesses()[1].proc, 1);
  EXPECT_EQ(t.accesses()[2].step, 1);
}

TEST(ReferenceTrace, MergesDuplicateTriples) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 1, 2, 3);
  t.add(0, 1, 2, 4);
  t.finalize();
  ASSERT_EQ(t.accesses().size(), 1u);
  EXPECT_EQ(t.accesses()[0].weight, 7);
  EXPECT_EQ(t.totalWeight(), 7);
}

/// What finalize() produced before it skipped the sort for sorted input:
/// sort by (step, data, proc), then sum the weights of equal triples.
std::vector<Access> sortAndMerge(std::vector<Access> accesses) {
  std::sort(accesses.begin(), accesses.end(),
            [](const Access& a, const Access& b) {
              return std::tie(a.step, a.data, a.proc) <
                     std::tie(b.step, b.data, b.proc);
            });
  std::vector<Access> out;
  for (const Access& a : accesses) {
    if (!out.empty() && out.back().step == a.step &&
        out.back().data == a.data && out.back().proc == a.proc) {
      out.back().weight += a.weight;
    } else {
      out.push_back(a);
    }
  }
  return out;
}

TEST(ReferenceTrace, SortedInputFinalizesLikeTheSortPath) {
  const std::vector<Access> random = [] {
    std::mt19937 rng(11);
    std::vector<Access> v;
    for (int i = 0; i < 2000; ++i) {
      v.push_back(Access{static_cast<StepId>(rng() % 20),
                         static_cast<ProcId>(rng() % 4),
                         static_cast<DataId>(rng() % 16),
                         static_cast<Cost>(1 + rng() % 5)});
    }
    return v;
  }();
  const std::vector<Access> sortedWithDuplicates = [&] {
    std::vector<Access> v = random;
    std::sort(v.begin(), v.end(), [](const Access& a, const Access& b) {
      return std::tie(a.step, a.data, a.proc) <
             std::tie(b.step, b.data, b.proc);
    });
    return v;
  }();
  const std::vector<Access> sortedUnique = sortAndMerge(random);
  ASSERT_LT(sortedUnique.size(), sortedWithDuplicates.size());

  for (const std::vector<Access>* input :
       {&sortedUnique, &sortedWithDuplicates, &random}) {
    ReferenceTrace t(DataSpace::singleSquare(4));
    for (const Access& a : *input) t.add(a.step, a.proc, a.data, a.weight);
    t.finalize();
    const std::vector<Access> want = sortAndMerge(*input);
    EXPECT_EQ(t.accesses(), want);
    EXPECT_EQ(t.numSteps(), want.back().step + 1);
    Cost total = 0;
    for (const Access& a : want) total += a.weight;
    EXPECT_EQ(t.totalWeight(), total);
  }
}

TEST(ReferenceTrace, StepAndWeightAccounting) {
  const ReferenceTrace t = smallTrace();
  EXPECT_EQ(t.numSteps(), 2);
  EXPECT_EQ(t.totalWeight(), 4);
  EXPECT_EQ(t.numData(), 4);
}

TEST(ReferenceTrace, EmptyTrace) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.finalize();
  EXPECT_EQ(t.numSteps(), 0);
  EXPECT_EQ(t.totalWeight(), 0);
  EXPECT_TRUE(t.accesses().empty());
}

TEST(ReferenceTrace, FinalizeIsIdempotent) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  t.finalize();
  EXPECT_EQ(t.accesses().size(), 1u);
}

TEST(ReferenceTrace, RejectsInvalidAccesses) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  EXPECT_THROW(t.add(-1, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, -1, 0, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, 0, 4, 1), std::invalid_argument);   // data out of range
  EXPECT_THROW(t.add(0, 0, -1, 1), std::invalid_argument);
  EXPECT_THROW(t.add(0, 0, 0, 0), std::invalid_argument);   // zero weight
  // numSteps() = last step + 1 must fit StepId.
  EXPECT_THROW(t.add(std::numeric_limits<StepId>::max(), 0, 0, 1),
               std::invalid_argument);

  ReferenceTrace heavy(DataSpace::singleSquare(2));
  heavy.add(0, 0, 0, std::numeric_limits<Cost>::max());
  heavy.add(0, 0, 0, 1);  // merging these two would overflow Cost
  EXPECT_THROW(heavy.finalize(), std::invalid_argument);
}

TEST(ReferenceTrace, AddAfterFinalizeUnfinalizes) {
  ReferenceTrace t(DataSpace::singleSquare(2));
  t.add(0, 0, 0, 1);
  t.finalize();
  EXPECT_TRUE(t.finalized());
  t.add(1, 0, 0, 1);
  EXPECT_FALSE(t.finalized());
  t.finalize();
  EXPECT_EQ(t.numSteps(), 2);
}

}  // namespace
}  // namespace pimsched
