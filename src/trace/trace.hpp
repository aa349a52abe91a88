#pragma once

#include <vector>

#include "pim/types.hpp"
#include "trace/data_space.hpp"

namespace pimsched {

/// One aggregated data reference: at execution step `step`, processor `proc`
/// references datum `data` with total volume `weight` (number of accesses,
/// each moving one data unit). This is the unit of the paper's "processor
/// reference string".
struct Access {
  StepId step = 0;
  ProcId proc = 0;
  DataId data = 0;
  Cost weight = 1;

  friend auto operator<=>(const Access&, const Access&) = default;
};

/// A full data reference trace of an application: the multiset of accesses
/// over all execution steps, plus the DataSpace describing the data.
///
/// Invariants after finalize(): accesses sorted by (step, data, proc);
/// duplicate (step, data, proc) entries merged; numSteps() == max step + 1.
class ReferenceTrace {
 public:
  explicit ReferenceTrace(DataSpace dataSpace)
      : dataSpace_(std::move(dataSpace)) {}

  /// Appends a reference. Call finalize() before reading.
  void add(StepId step, ProcId proc, DataId data, Cost weight = 1);
  /// Reserves room for `n` add() calls.
  void reserve(std::size_t n) { accesses_.reserve(n); }

  /// Sorts + merges duplicates; validates ids. Idempotent.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const DataSpace& dataSpace() const { return dataSpace_; }
  [[nodiscard]] const std::vector<Access>& accesses() const {
    return accesses_;
  }
  [[nodiscard]] DataId numData() const { return dataSpace_.numData(); }
  [[nodiscard]] StepId numSteps() const { return numSteps_; }
  /// Sum of all access weights (total reference volume).
  [[nodiscard]] Cost totalWeight() const { return totalWeight_; }

 private:
  DataSpace dataSpace_;
  std::vector<Access> accesses_;
  StepId numSteps_ = 0;
  Cost totalWeight_ = 0;
  bool finalized_ = false;
};

}  // namespace pimsched
