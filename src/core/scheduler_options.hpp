#pragma once

#include <cstdint>

namespace pimsched {

/// Order in which data are considered when competing for capacity slots
/// (the paper's Algorithm 1 assigns "data i" in an unspecified order; id
/// order is the natural reading, heaviest-first is a common refinement).
enum class DataOrder { kById, kByWeightDesc };

/// Options shared by SCDS / LOMCDS / GOMCDS.
struct SchedulerOptions {
  /// Per-processor memory capacity (data slots) enforced in every window;
  /// negative means unlimited.
  std::int64_t capacity = -1;

  DataOrder order = DataOrder::kById;
};

}  // namespace pimsched
