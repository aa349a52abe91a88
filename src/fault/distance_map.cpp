#include "fault/distance_map.hpp"

#include <algorithm>
#include <deque>

#include "obs/obs.hpp"

namespace pimsched {

DistanceMap::DistanceMap(const Grid& grid, const FaultMap& faults)
    : grid_(&grid),
      faults_(&faults),
      size_(grid.size()),
      alive_(static_cast<std::size_t>(grid.size()), 0),
      dist_(static_cast<std::size_t>(grid.size()) *
                static_cast<std::size_t>(grid.size()),
            -1) {
  PIMSCHED_SCOPED_TIMER("fault.distance_map.build");
  PIMSCHED_COUNTER_ADD("fault.distance_map.builds", 1);
  for (ProcId p = 0; p < size_; ++p) {
    alive_[static_cast<std::size_t>(p)] = faults.procAlive(p) ? 1 : 0;
  }

  std::deque<ProcId> frontier;
  for (ProcId src = 0; src < size_; ++src) {
    if (!alive(src)) continue;
    std::int32_t* row =
        dist_.data() + static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(size_);
    row[src] = 0;
    frontier.clear();
    frontier.push_back(src);
    int reached = 1;
    while (!frontier.empty()) {
      const ProcId cur = frontier.front();
      frontier.pop_front();
      for (const ProcId next : grid.neighbors(cur)) {
        if (!alive(next) || row[next] >= 0 || faults.linkDead(cur, next)) {
          continue;
        }
        row[next] = row[cur] + 1;
        maxHop_ = std::max<Cost>(maxHop_, row[next]);
        ++reached;
        frontier.push_back(next);
      }
    }
    if (reached < faults.aliveProcCount()) partitioned_ = true;
  }
}

}  // namespace pimsched
