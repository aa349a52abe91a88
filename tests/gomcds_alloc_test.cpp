// Allocation accounting for the flat GOMCDS kernels: global operator
// new/delete are replaced with counting versions, and the tests assert the
// zero-alloc steady state the scratch-arena design promises — a warm
// solver call performs no heap allocations at all, and a scheduling call's
// allocation count does not grow with the number of data, whether they
// share one equivalence class or each form their own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/gomcds.hpp"
#include "graph/layered_dag.hpp"
#include "trace/trace.hpp"
#include "trace/windowed_refs.hpp"

namespace {

std::atomic<std::int64_t> g_newCalls{0};

void* countedAlloc(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pimsched {
namespace {

std::int64_t allocCount() {
  return g_newCalls.load(std::memory_order_relaxed);
}

/// A P x P transition table with small finite entries.
std::vector<Cost> tableTrans(const Grid& grid) {
  std::vector<Cost> trans(static_cast<std::size_t>(grid.size()) *
                          static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < trans.size(); ++i) {
    trans[i] = static_cast<Cost>(i % 5);
  }
  return trans;
}

TEST(GomcdsAlloc, WarmFlatSolveAllocatesNothing) {
  const Grid grid(4, 4);
  const int layers = 6;
  std::vector<Cost> nodeCosts(
      static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < nodeCosts.size(); ++i) {
    nodeCosts[i] = static_cast<Cost>((i * 7) % 23);
  }
  LayeredDagScratch scratch;
  LayeredPath path;
  // First call grows the scratch buffers (and resolves the obs handles).
  LayeredDagSolver::solveManhattan(grid, layers, nodeCosts, 2, 0, scratch.dp,
                                   scratch, path);
  const std::int64_t before = allocCount();
  for (int i = 0; i < 10; ++i) {
    LayeredDagSolver::solveManhattan(grid, layers, nodeCosts, 2, 0,
                                     scratch.dp, scratch, path);
  }
  EXPECT_EQ(allocCount(), before)
      << "warm cold-start solveManhattan must not touch the heap";

  const std::vector<Cost> trans = tableTrans(grid);
  LayeredDagSolver::solveTable(layers, grid.size(), nodeCosts, trans, 0,
                               scratch.dp, scratch, path);
  const std::int64_t beforeTable = allocCount();
  for (int i = 0; i < 10; ++i) {
    LayeredDagSolver::solveTable(layers, grid.size(), nodeCosts, trans, 0,
                                 scratch.dp, scratch, path);
  }
  EXPECT_EQ(allocCount(), beforeTable)
      << "warm cold-start solveTable must not touch the heap";
}

// The resume path of both kernels — a caller-held dp table re-relaxed from
// fromLayer > 0 with a predecessor cache, as IncrementalSolver drives it —
// is allocation-free once the buffers have grown: the cache invalidates
// its suffix in place and reconstruction fills it without reallocating.
TEST(GomcdsAlloc, ResumeSolveWithParentCacheAllocatesNothing) {
  const Grid grid(4, 4);
  const int layers = 6;
  std::vector<Cost> nodeCosts(
      static_cast<std::size_t>(layers) * static_cast<std::size_t>(grid.size()));
  for (std::size_t i = 0; i < nodeCosts.size(); ++i) {
    nodeCosts[i] = static_cast<Cost>((i * 7) % 23);
  }
  const std::vector<Cost> trans = tableTrans(grid);
  LayeredDagScratch scratch;
  LayeredPath path;
  CostBuffer dp;
  LayeredParentCache parents;

  LayeredDagSolver::solveManhattan(grid, layers, nodeCosts, 2, 0, dp, scratch,
                                   path, &parents);
  const std::int64_t before = allocCount();
  for (int from = 1; from <= layers; ++from) {
    LayeredDagSolver::solveManhattan(grid, layers, nodeCosts, 2, from, dp,
                                     scratch, path, &parents);
  }
  EXPECT_EQ(allocCount(), before)
      << "resumed solveManhattan must not touch the heap";

  LayeredDagSolver::solveTable(layers, grid.size(), nodeCosts, trans, 0, dp,
                               scratch, path, &parents);
  const std::int64_t beforeTable = allocCount();
  for (int from = 1; from <= layers; ++from) {
    LayeredDagSolver::solveTable(layers, grid.size(), nodeCosts, trans, from,
                                 dp, scratch, path, &parents);
  }
  EXPECT_EQ(allocCount(), beforeTable)
      << "resumed solveTable must not touch the heap";
}

/// A trace whose data all share one reference string per window, so the
/// dedup layer collapses everything into a single class.
WindowedRefs singleClassRefs(const Grid& grid, DataId numData, int windows,
                             ReferenceTrace& traceOut) {
  DataSpace ds;
  ds.addArray("A", 1, numData);
  ReferenceTrace t(ds);
  for (StepId s = 0; s < static_cast<StepId>(windows); ++s) {
    for (DataId d = 0; d < numData; ++d) {
      t.add(s, static_cast<ProcId>(s % grid.size()), d, 2);
    }
  }
  t.finalize();
  traceOut = std::move(t);
  return WindowedRefs(
      traceOut,
      WindowPartition::evenCount(static_cast<StepId>(windows), windows), grid);
}

TEST(GomcdsAlloc, ScheduleAllocationsIndependentOfDataCount) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const int windows = 4;
  ReferenceTrace smallTrace{DataSpace::singleSquare(1)};
  ReferenceTrace bigTrace{DataSpace::singleSquare(1)};
  const WindowedRefs smallRefs =
      singleClassRefs(grid, 8, windows, smallTrace);
  const WindowedRefs bigRefs = singleClassRefs(grid, 64, windows, bigTrace);

  // Warm run resolves metric handles and grows the per-thread scratch.
  (void)scheduleGomcds(smallRefs, model);

  const std::int64_t beforeSmall = allocCount();
  (void)scheduleGomcds(smallRefs, model);
  const std::int64_t smallAllocs = allocCount() - beforeSmall;

  const std::int64_t beforeBig = allocCount();
  (void)scheduleGomcds(bigRefs, model);
  const std::int64_t bigAllocs = allocCount() - beforeBig;

  // Both runs have one equivalence class; 56 extra data must not buy extra
  // allocations beyond noise (the steady-state loop is allocation-free).
  EXPECT_LE(bigAllocs, smallAllocs + 4)
      << "per-datum steady state is supposed to be allocation-free: "
      << smallAllocs << " allocations for 8 data vs " << bigAllocs
      << " for 64";
}

/// A trace whose data all have distinct reference strings (each datum has
/// its own weight), so every equivalence class is a singleton and every
/// serving-cost table is built afresh.
WindowedRefs distinctRefs(const Grid& grid, DataId numData, int windows,
                          ReferenceTrace& traceOut) {
  DataSpace ds;
  ds.addArray("A", 1, numData);
  ReferenceTrace t(ds);
  for (StepId s = 0; s < static_cast<StepId>(windows); ++s) {
    for (DataId d = 0; d < numData; ++d) {
      t.add(s, static_cast<ProcId>((d + s) % grid.size()), d, 1 + d);
    }
  }
  t.finalize();
  traceOut = std::move(t);
  return WindowedRefs(
      traceOut,
      WindowPartition::evenCount(static_cast<StepId>(windows), windows), grid);
}

TEST(GomcdsAlloc, CapacityLoopAllocationsIndependentOfDataCount) {
  const Grid grid(4, 4);
  const CostModel model(grid);
  const int windows = 4;
  ReferenceTrace smallTrace{DataSpace::singleSquare(1)};
  ReferenceTrace bigTrace{DataSpace::singleSquare(1)};
  const WindowedRefs smallRefs = distinctRefs(grid, 16, windows, smallTrace);
  const WindowedRefs bigRefs = distinctRefs(grid, 128, windows, bigTrace);
  // Tight capacity: the fewest slots per processor that hold every datum,
  // so the per-datum masked loop runs and slots fill up.
  const auto tight = [&](const WindowedRefs& refs) {
    return SchedulerOptions{(refs.numData() + grid.size() - 1) / grid.size()};
  };

  // Warm run resolves metric handles and grows the per-thread scratch.
  (void)scheduleGomcds(smallRefs, model, tight(smallRefs));

  const std::int64_t beforeSmall = allocCount();
  (void)scheduleGomcds(smallRefs, model, tight(smallRefs));
  const std::int64_t smallAllocs = allocCount() - beforeSmall;

  const std::int64_t beforeBig = allocCount();
  (void)scheduleGomcds(bigRefs, model, tight(bigRefs));
  const std::int64_t bigAllocs = allocCount() - beforeBig;

  // 112 extra data with their own reference strings (448 extra
  // serving-cost rows) must not buy extra allocations: every row is
  // written straight into the per-thread scratch.
  EXPECT_LE(bigAllocs, smallAllocs + 4)
      << "the capacity loop is supposed to be allocation-free per datum: "
      << smallAllocs << " allocations for 16 data vs " << bigAllocs
      << " for 128";
}

}  // namespace
}  // namespace pimsched
