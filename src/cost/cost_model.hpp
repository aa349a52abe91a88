#pragma once

#include <cassert>
#include <span>

#include "fault/distance_map.hpp"
#include "fault/fault_map.hpp"
#include "pim/grid.hpp"
#include "pim/types.hpp"
#include "trace/windowed_refs.hpp"

namespace pimsched {

/// Tunable constants of the paper's communication-cost metric.
struct CostParams {
  /// Cost of moving one data unit across one mesh link. The paper fixes the
  /// distance between adjacent processors to 1.
  Cost hopCost = 1;
  /// Volume (data units) transferred when a datum migrates between the
  /// centers of consecutive windows; one datum = one unit by default.
  Cost moveVolume = 1;
};

/// Evaluates the paper's cost metric on a grid:
///   serveCost = sum over references of weight * hopCost * distance,
///   moveCost  = moveVolume * hopCost * distance(from, to),
/// where distance is the Manhattan distance on a healthy mesh, or the
/// fault-aware hop distance (shortest path over the alive sub-mesh) when
/// the model carries a DistanceMap. On a DistanceMap built from an empty
/// FaultMap every distance equals the Manhattan distance, so a fault-aware
/// model over a healthy mesh reproduces the original metric exactly.
///
/// A distance of kInfiniteCost (dead or unreachable endpoint) saturates:
/// serveCost/moveCost return kInfiniteCost rather than overflowing, and
/// such placements are forbidden rather than merely expensive.
class CostModel {
 public:
  explicit CostModel(const Grid& grid, CostParams params = {})
      : grid_(&grid), params_(params) {}

  /// Fault-aware model. `distances` must outlive the model and be built
  /// over the same grid.
  CostModel(const Grid& grid, const DistanceMap& distances,
            CostParams params = {})
      : grid_(&grid), distances_(&distances), params_(params) {
    assert(&distances.grid() == &grid &&
           "DistanceMap must be built over the model's grid");
  }

  [[nodiscard]] const Grid& grid() const { return *grid_; }
  [[nodiscard]] const CostParams& params() const { return params_; }

  [[nodiscard]] bool faultAware() const { return distances_ != nullptr; }
  /// The distance table; only valid when faultAware().
  [[nodiscard]] const DistanceMap& distances() const {
    assert(distances_ != nullptr);
    return *distances_;
  }
  /// The fault state the distances were built from, or nullptr.
  [[nodiscard]] const FaultMap* faults() const {
    return distances_ == nullptr ? nullptr : &distances_->faults();
  }

  /// Hop distance under the model's metric; kInfiniteCost when a or b is
  /// dead or unreachable on the faulted mesh.
  [[nodiscard]] Cost hopDistance(ProcId a, ProcId b) const {
    if (distances_ != nullptr) return distances_->hopDistance(a, b);
    return static_cast<Cost>(grid_->manhattan(a, b));
  }

  /// Largest finite hop distance under the model's metric.
  [[nodiscard]] Cost maxHopDistance() const {
    if (distances_ != nullptr) return distances_->maxHopDistance();
    return static_cast<Cost>(grid_->rows() + grid_->cols() - 2);
  }

  /// True when data must not be placed on p (p is dead).
  [[nodiscard]] bool centerForbidden(ProcId p) const {
    return distances_ != nullptr && !distances_->alive(p);
  }

  /// Cost of serving one window's reference string from `center`.
  [[nodiscard]] Cost serveCost(std::span<const ProcWeight> refs,
                               ProcId center) const {
    if (centerForbidden(center)) return kInfiniteCost;
    Cost sum = 0;
    for (const ProcWeight& pw : refs) {
      const Cost d = hopDistance(center, pw.proc);
      if (d >= kInfiniteCost) return kInfiniteCost;
      sum += pw.weight * d;
    }
    return sum * params_.hopCost;
  }

  /// Cost of migrating one datum from processor `from` to `to` between
  /// consecutive windows.
  [[nodiscard]] Cost moveCost(ProcId from, ProcId to) const {
    const Cost d = hopDistance(from, to);
    if (d >= kInfiniteCost) return kInfiniteCost;
    return params_.moveVolume * params_.hopCost * d;
  }

 private:
  const Grid* grid_;
  const DistanceMap* distances_ = nullptr;
  CostParams params_;
};

}  // namespace pimsched
