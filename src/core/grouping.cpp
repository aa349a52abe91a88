#include "core/grouping.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <stdexcept>

#include "core/data_order.hpp"
#include "cost/center_list.hpp"
#include "graph/layered_dag.hpp"
#include "pim/memory.hpp"

namespace pimsched {

WindowCostPrefix::WindowCostPrefix(const WindowedRefs& refs, DataId d,
                                   const CostModel& model)
    : numWindows_(refs.numWindows()), numProcs_(refs.numProcs()) {
  prefix_.assign(static_cast<std::size_t>(numWindows_ + 1) *
                     static_cast<std::size_t>(numProcs_),
                 0);
  weightPrefix_.assign(static_cast<std::size_t>(numWindows_ + 1), 0);
  for (WindowId w = 0; w < numWindows_; ++w) {
    const std::vector<Cost> costs = centerCosts(model, refs.refs(d, w));
    for (ProcId p = 0; p < numProcs_; ++p) {
      prefix_[static_cast<std::size_t>(w + 1) *
                  static_cast<std::size_t>(numProcs_) +
              static_cast<std::size_t>(p)] =
          at(w, p) + costs[static_cast<std::size_t>(p)];
    }
    weightPrefix_[static_cast<std::size_t>(w + 1)] =
        weightPrefix_[static_cast<std::size_t>(w)] +
        refs.windowWeight(d, w);
  }
}

BestCenter WindowCostPrefix::bestSegmentCenter(WindowId begin,
                                               WindowId end) const {
  BestCenter best{0, segment(begin, end, 0)};
  for (ProcId p = 1; p < numProcs_; ++p) {
    const Cost c = segment(begin, end, p);
    if (c < best.cost) best = BestCenter{p, c};
  }
  return best;
}

Cost groupingCost(const DataGrouping& grouping,
                  const WindowCostPrefix& prefix, const CostModel& model) {
  Cost total = 0;
  const int g = grouping.numGroups();
  for (int i = 0; i < g; ++i) {
    const WindowId begin = grouping.starts[static_cast<std::size_t>(i)];
    const WindowId end = (i + 1 < g)
                             ? grouping.starts[static_cast<std::size_t>(i + 1)]
                             : prefix.numWindows();
    total += prefix.segment(begin, end,
                            grouping.centers[static_cast<std::size_t>(i)]);
    if (i > 0) {
      total += model.moveCost(grouping.centers[static_cast<std::size_t>(i - 1)],
                              grouping.centers[static_cast<std::size_t>(i)]);
    }
  }
  return total;
}

namespace {

/// Empty (zero-weight) groups are served for free anywhere, so their best
/// center is wherever the datum already is: holding still costs nothing,
/// while the raw argmin (processor 0) would charge phantom movement. A
/// leading run of empty groups adopts the first referenced group's center.
void adoptNeighborCentersForEmptyGroups(DataGrouping& g,
                                        const WindowCostPrefix& prefix) {
  const int n = g.numGroups();
  int firstNonEmpty = -1;
  for (int i = 0; i < n; ++i) {
    const WindowId begin = g.starts[static_cast<std::size_t>(i)];
    const WindowId end = (i + 1 < n)
                             ? g.starts[static_cast<std::size_t>(i + 1)]
                             : prefix.numWindows();
    if (prefix.segmentWeight(begin, end) > 0) {
      firstNonEmpty = i;
      break;
    }
  }
  if (firstNonEmpty < 0) return;  // never referenced: any center works
  for (int i = firstNonEmpty - 1; i >= 0; --i) {
    g.centers[static_cast<std::size_t>(i)] =
        g.centers[static_cast<std::size_t>(i + 1)];
  }
  for (int i = firstNonEmpty + 1; i < n; ++i) {
    const WindowId begin = g.starts[static_cast<std::size_t>(i)];
    const WindowId end = (i + 1 < n)
                             ? g.starts[static_cast<std::size_t>(i + 1)]
                             : prefix.numWindows();
    if (prefix.segmentWeight(begin, end) == 0) {
      g.centers[static_cast<std::size_t>(i)] =
          g.centers[static_cast<std::size_t>(i - 1)];
    }
  }
}

/// Rebuilds group centers (argmin of each merged segment, empty groups
/// staying put) for a given set of group starts.
DataGrouping withRecomputedCenters(std::vector<WindowId> starts,
                                   const WindowCostPrefix& prefix) {
  DataGrouping g;
  g.starts = std::move(starts);
  const int n = g.numGroups();
  g.centers.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const WindowId begin = g.starts[static_cast<std::size_t>(i)];
    const WindowId end = (i + 1 < n)
                             ? g.starts[static_cast<std::size_t>(i + 1)]
                             : prefix.numWindows();
    g.centers[static_cast<std::size_t>(i)] =
        prefix.bestSegmentCenter(begin, end).proc;
  }
  adoptNeighborCentersForEmptyGroups(g, prefix);
  return g;
}

}  // namespace

DataGrouping singletonGrouping(const WindowCostPrefix& prefix) {
  std::vector<WindowId> starts;
  for (WindowId w = 0; w < prefix.numWindows(); ++w) starts.push_back(w);
  return withRecomputedCenters(std::move(starts), prefix);
}

DataGrouping greedyGrouping(const WindowCostPrefix& prefix,
                            const CostModel& model) {
  const int W = prefix.numWindows();
  DataGrouping current = singletonGrouping(prefix);
  Cost currentCost = groupingCost(current, prefix, model);
  if (W <= 1) return current;

  // Confirmed group starts strictly before `start`; the group under
  // construction covers [start, j]; windows after j are singletons.
  std::vector<WindowId> confirmed;  // starts of groups before `start`
  WindowId start = 0;
  for (WindowId j = 1; j < W; ++j) {
    std::vector<WindowId> proposal = confirmed;
    proposal.push_back(start);
    for (WindowId w = j + 1; w < W; ++w) proposal.push_back(w);
    const DataGrouping candidate =
        withRecomputedCenters(std::move(proposal), prefix);
    const Cost candidateCost = groupingCost(candidate, prefix, model);
    if (candidateCost <= currentCost) {
      current = candidate;
      currentCost = candidateCost;
    } else {
      confirmed.push_back(start);
      start = j;
    }
  }
  return current;
}

DataGrouping optimalGrouping(const WindowCostPrefix& prefix,
                             const CostModel& model) {
  const int W = prefix.numWindows();
  const int m = prefix.numProcs();
  const Grid& grid = model.grid();
  const Cost beta = model.params().hopCost * model.params().moveVolume;

  // dp[w][p]: min cost covering windows [0, w] with the last group ending
  // at w and centred at p. best[s][p] = min_q dp[s-1][q] + move(q, p)
  // (0 when s == 0), computed with the chamfer relaxation per s.
  std::vector<std::vector<Cost>> dp(
      static_cast<std::size_t>(W),
      std::vector<Cost>(static_cast<std::size_t>(m), kInfiniteCost));
  std::vector<std::vector<Cost>> best(
      static_cast<std::size_t>(W),
      std::vector<Cost>(static_cast<std::size_t>(m), 0));
  std::vector<std::vector<WindowId>> choice(
      static_cast<std::size_t>(W),
      std::vector<WindowId>(static_cast<std::size_t>(m), 0));

  for (int w = 0; w < W; ++w) {
    if (w > 0) {
      manhattanMinPlusInto(grid, dp[static_cast<std::size_t>(w - 1)], beta,
                           best[static_cast<std::size_t>(w)]);
    }
    for (ProcId p = 0; p < m; ++p) {
      Cost bestCost = kInfiniteCost;
      WindowId bestStart = 0;
      for (WindowId s = 0; s <= w; ++s) {
        const Cost entry = (s == 0) ? 0
                                    : best[static_cast<std::size_t>(s)]
                                          [static_cast<std::size_t>(p)];
        const Cost c = satAdd(entry, prefix.segment(s, w + 1, p));
        if (c < bestCost) {
          bestCost = c;
          bestStart = s;
        }
      }
      dp[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] = bestCost;
      choice[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)] =
          bestStart;
    }
  }

  // Reconstruct backward.
  const std::vector<Cost>& last = dp[static_cast<std::size_t>(W - 1)];
  ProcId p = static_cast<ProcId>(
      std::min_element(last.begin(), last.end()) - last.begin());
  std::vector<WindowId> starts;
  std::vector<ProcId> centers;
  int w = W - 1;
  while (true) {
    const WindowId s =
        choice[static_cast<std::size_t>(w)][static_cast<std::size_t>(p)];
    starts.push_back(s);
    centers.push_back(p);
    if (s == 0) break;
    // Predecessor center: the q attaining best[s][p].
    const Cost target =
        best[static_cast<std::size_t>(s)][static_cast<std::size_t>(p)];
    ProcId q = kNoProc;
    for (ProcId cand = 0; cand < m; ++cand) {
      if (satAdd(dp[static_cast<std::size_t>(s - 1)]
                   [static_cast<std::size_t>(cand)],
                 beta * grid.manhattan(cand, p)) == target) {
        q = cand;
        break;
      }
    }
    if (q == kNoProc) {
      throw std::logic_error("optimalGrouping: reconstruction failed");
    }
    w = s - 1;
    p = q;
  }
  std::reverse(starts.begin(), starts.end());
  std::reverse(centers.begin(), centers.end());
  return DataGrouping{std::move(starts), std::move(centers)};
}

namespace {

/// Capacity-aware variant of the greedy grouper used by
/// scheduleGroupedLomcds: group centers are restricted to processors with
/// a free slot in every window of the group (given the occupancy left by
/// previously scheduled data), so Algorithm 3's merge decisions are made
/// against the costs that will actually be realised.
class CapacityAwareGrouper {
 public:
  CapacityAwareGrouper(const WindowCostPrefix& prefix, const CostModel& model,
                       const std::vector<OccupancyMap>& occupancy)
      : prefix_(prefix), model_(model), occupancy_(occupancy) {}

  /// First processor of the segment's ascending-cost list with room in
  /// every window of [begin, end); kNoProc when none exists.
  [[nodiscard]] ProcId availableSegmentCenter(WindowId begin,
                                              WindowId end) const {
    const int m = prefix_.numProcs();
    std::vector<Cost> costs(static_cast<std::size_t>(m));
    for (ProcId p = 0; p < m; ++p) {
      costs[static_cast<std::size_t>(p)] = prefix_.segment(begin, end, p);
    }
    const CenterList list(costs);
    for (const ProcId p : list.order()) {
      if (roomEverywhere(p, begin, end)) return p;
    }
    return kNoProc;
  }

  [[nodiscard]] bool roomEverywhere(ProcId p, WindowId begin,
                                    WindowId end) const {
    for (WindowId w = begin; w < end; ++w) {
      if (!occupancy_[static_cast<std::size_t>(w)].hasRoom(p)) return false;
    }
    return true;
  }

  /// Centers for a set of group starts; empty groups stay at a neighbour's
  /// center when it has room, otherwise take the nearest available
  /// processor. Returns nullopt if any group has no feasible center.
  [[nodiscard]] std::optional<DataGrouping> withCenters(
      std::vector<WindowId> starts) const {
    DataGrouping g;
    g.starts = std::move(starts);
    const int n = g.numGroups();
    g.centers.assign(static_cast<std::size_t>(n), kNoProc);
    for (int i = 0; i < n; ++i) {
      const auto [begin, end] = groupRange(g, i);
      if (prefix_.segmentWeight(begin, end) > 0) {
        g.centers[static_cast<std::size_t>(i)] =
            availableSegmentCenter(begin, end);
        if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
          return std::nullopt;
        }
      }
    }
    // Empty groups adopt the nearest feasible neighbour center: forward
    // pass from the previous group, then a backward pass for a leading
    // run of empty groups.
    for (int i = 0; i < n; ++i) {
      if (g.centers[static_cast<std::size_t>(i)] != kNoProc) continue;
      const ProcId neighbor =
          (i > 0) ? g.centers[static_cast<std::size_t>(i - 1)] : kNoProc;
      if (neighbor != kNoProc) {
        g.centers[static_cast<std::size_t>(i)] =
            nearestAvailable(neighbor, g, i);
        if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
          return std::nullopt;
        }
      }
    }
    for (int i = n - 1; i >= 0; --i) {
      if (g.centers[static_cast<std::size_t>(i)] != kNoProc) continue;
      const ProcId neighbor = (i + 1 < n)
                                  ? g.centers[static_cast<std::size_t>(i + 1)]
                                  : static_cast<ProcId>(0);
      g.centers[static_cast<std::size_t>(i)] =
          nearestAvailable(neighbor == kNoProc ? 0 : neighbor, g, i);
      if (g.centers[static_cast<std::size_t>(i)] == kNoProc) {
        return std::nullopt;
      }
    }
    return g;
  }

  /// Greedy Algorithm 3 against realised (capacity-restricted) costs.
  [[nodiscard]] std::optional<DataGrouping> run() const {
    const int W = prefix_.numWindows();
    std::vector<WindowId> singleton;
    for (WindowId w = 0; w < W; ++w) singleton.push_back(w);
    std::optional<DataGrouping> current = withCenters(std::move(singleton));
    if (!current.has_value()) return std::nullopt;
    Cost currentCost = groupingCost(*current, prefix_, model_);
    if (W <= 1) return current;

    std::vector<WindowId> confirmed;
    WindowId start = 0;
    for (WindowId j = 1; j < W; ++j) {
      std::vector<WindowId> proposal = confirmed;
      proposal.push_back(start);
      for (WindowId w = j + 1; w < W; ++w) proposal.push_back(w);
      const std::optional<DataGrouping> candidate =
          withCenters(std::move(proposal));
      if (candidate.has_value()) {
        const Cost candidateCost =
            groupingCost(*candidate, prefix_, model_);
        if (candidateCost <= currentCost) {
          current = candidate;
          currentCost = candidateCost;
          continue;
        }
      }
      confirmed.push_back(start);
      start = j;
    }
    return current;
  }

 private:
  [[nodiscard]] std::pair<WindowId, WindowId> groupRange(
      const DataGrouping& g, int i) const {
    const WindowId begin = g.starts[static_cast<std::size_t>(i)];
    const WindowId end =
        (i + 1 < g.numGroups()) ? g.starts[static_cast<std::size_t>(i + 1)]
                                : static_cast<WindowId>(prefix_.numWindows());
    return {begin, end};
  }

  [[nodiscard]] ProcId nearestAvailable(ProcId from, const DataGrouping& g,
                                        int i) const {
    const auto [begin, end] = groupRange(g, i);
    const int m = prefix_.numProcs();
    std::vector<Cost> costs(static_cast<std::size_t>(m));
    for (ProcId p = 0; p < m; ++p) {
      costs[static_cast<std::size_t>(p)] = model_.moveCost(from, p);
    }
    const CenterList list(costs);
    for (const ProcId p : list.order()) {
      if (roomEverywhere(p, begin, end)) return p;
    }
    return kNoProc;
  }

  const WindowCostPrefix& prefix_;
  const CostModel& model_;
  const std::vector<OccupancyMap>& occupancy_;
};

}  // namespace

DataSchedule scheduleGroupedGomcds(const WindowedRefs& refs,
                                   const CostModel& model,
                                   const SchedulerOptions& options) {
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  const Cost beta = model.params().hopCost * model.params().moveVolume;
  DataSchedule schedule(refs.numData(), W);
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));
  const std::size_t P = static_cast<std::size_t>(grid.size());
  CostBuffer nodeCosts;
  LayeredDagScratch scratch;
  LayeredPath path;

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    const WindowCostPrefix prefix(refs, d, model);
    const CapacityAwareGrouper grouper(prefix, model, occupancy);
    const std::optional<DataGrouping> grouping = grouper.run();
    if (!grouping.has_value()) {
      throw std::runtime_error(
          "scheduleGroupedGomcds: capacity infeasible for a datum");
    }
    const int g = grouping->numGroups();
    const auto groupEnd = [&](int i) -> WindowId {
      return (i + 1 < g) ? grouping->starts[static_cast<std::size_t>(i + 1)]
                         : static_cast<WindowId>(W);
    };

    // GOMCDS DP over groups: a node is (group, center); serving is the
    // merged segment's cost; a node is forbidden when the center lacks
    // room in any window of the group.
    nodeCosts.resize(static_cast<std::size_t>(g) * P);
    for (int i = 0; i < g; ++i) {
      const WindowId begin = grouping->starts[static_cast<std::size_t>(i)];
      const WindowId end = groupEnd(i);
      Cost* row = nodeCosts.data() + static_cast<std::size_t>(i) * P;
      for (ProcId p = 0; p < grid.size(); ++p) {
        row[static_cast<std::size_t>(p)] =
            grouper.roomEverywhere(p, begin, end)
                ? prefix.segment(begin, end, p)
                : kInfiniteCost;
      }
    }
    LayeredDagSolver::solveManhattan(grid, g, nodeCosts, beta, 0, scratch.dp,
                                     scratch, path);
    if (!path.feasible()) {
      throw std::runtime_error(
          "scheduleGroupedGomcds: no feasible center path");
    }
    for (int i = 0; i < g; ++i) {
      const auto c =
          static_cast<ProcId>(path.nodes[static_cast<std::size_t>(i)]);
      for (WindowId w = grouping->starts[static_cast<std::size_t>(i)];
           w < groupEnd(i); ++w) {
        occupancy[static_cast<std::size_t>(w)].tryPlace(c);
        schedule.setCenter(d, w, c);
      }
    }
  }
  return schedule;
}

DataSchedule scheduleGroupedLomcds(const WindowedRefs& refs,
                                   const CostModel& model,
                                   const SchedulerOptions& options,
                                   GroupingMethod method) {
  const Grid& grid = model.grid();
  const int W = refs.numWindows();
  DataSchedule schedule(refs.numData(), W);
  std::vector<OccupancyMap> occupancy(
      static_cast<std::size_t>(W), OccupancyMap(grid, options.capacity));

  for (const DataId d : dataVisitOrder(refs, options.order)) {
    const WindowCostPrefix prefix(refs, d, model);

    if (method == GroupingMethod::kGreedy) {
      // Greedy Algorithm 3, evaluated against the capacity actually left
      // by the data scheduled so far; the chosen centers are feasible by
      // construction.
      const CapacityAwareGrouper grouper(prefix, model, occupancy);
      const std::optional<DataGrouping> grouping = grouper.run();
      if (!grouping.has_value()) {
        throw std::runtime_error(
            "scheduleGroupedLomcds: capacity infeasible for a datum");
      }
      const int g = grouping->numGroups();
      for (int i = 0; i < g; ++i) {
        const WindowId begin = grouping->starts[static_cast<std::size_t>(i)];
        const WindowId end =
            (i + 1 < g) ? grouping->starts[static_cast<std::size_t>(i + 1)]
                        : W;
        const ProcId c = grouping->centers[static_cast<std::size_t>(i)];
        for (WindowId w = begin; w < end; ++w) {
          occupancy[static_cast<std::size_t>(w)].tryPlace(c);
          schedule.setCenter(d, w, c);
        }
      }
      continue;
    }

    // kOptimalDp (ablation): optimal uncapacitated grouping, then a
    // processor-list fallback placement.
    const DataGrouping grouping = optimalGrouping(prefix, model);
    const int g = grouping.numGroups();
    for (int i = 0; i < g; ++i) {
      const WindowId begin = grouping.starts[static_cast<std::size_t>(i)];
      const WindowId end =
          (i + 1 < g) ? grouping.starts[static_cast<std::size_t>(i + 1)] : W;

      // The grouping's own center first (it already encodes stay-put for
      // empty groups); then fall back down the merged-segment processor
      // list to the best center with room in every window of the group.
      std::vector<Cost> segCosts(static_cast<std::size_t>(grid.size()));
      for (ProcId p = 0; p < grid.size(); ++p) {
        segCosts[static_cast<std::size_t>(p)] = prefix.segment(begin, end, p);
      }
      const CenterList list(segCosts);
      std::vector<ProcId> candidates;
      candidates.reserve(list.order().size() + 1);
      candidates.push_back(grouping.centers[static_cast<std::size_t>(i)]);
      candidates.insert(candidates.end(), list.order().begin(),
                        list.order().end());
      ProcId placed = kNoProc;
      for (const ProcId cand : candidates) {
        bool roomEverywhere = true;
        for (WindowId w = begin; w < end; ++w) {
          if (!occupancy[static_cast<std::size_t>(w)].hasRoom(cand)) {
            roomEverywhere = false;
            break;
          }
        }
        if (roomEverywhere) {
          placed = cand;
          break;
        }
      }
      if (placed != kNoProc) {
        for (WindowId w = begin; w < end; ++w) {
          occupancy[static_cast<std::size_t>(w)].tryPlace(placed);
          schedule.setCenter(d, w, placed);
        }
        continue;
      }
      // No single processor has room across the whole group: degrade
      // gracefully into per-window placement that tracks the intended
      // center — for each window, the cheapest processor with room,
      // charging both its serving cost and the detour from the group
      // center (this is plain LOMCDS with a movement-aware tie).
      const ProcId intended =
          grouping.centers[static_cast<std::size_t>(i)];
      for (WindowId w = begin; w < end; ++w) {
        std::vector<Cost> costs(static_cast<std::size_t>(grid.size()));
        for (ProcId p = 0; p < grid.size(); ++p) {
          costs[static_cast<std::size_t>(p)] =
              prefix.segment(w, w + 1, p) + model.moveCost(intended, p);
        }
        const CenterList perWindow(costs);
        const ProcId fallback =
            perWindow.firstAvailable(occupancy[static_cast<std::size_t>(w)]);
        if (fallback == kNoProc) {
          throw std::runtime_error(
              "scheduleGroupedLomcds: capacity infeasible for a group");
        }
        occupancy[static_cast<std::size_t>(w)].tryPlace(fallback);
        schedule.setCenter(d, w, fallback);
      }
    }
  }
  return schedule;
}

}  // namespace pimsched
