#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pimsched {

void ReferenceTrace::add(StepId step, ProcId proc, DataId data, Cost weight) {
  if (step < 0) throw std::invalid_argument("Access step must be >= 0");
  if (step == std::numeric_limits<StepId>::max()) {
    // numSteps() is the last step + 1 and must fit StepId.
    throw std::invalid_argument("Access step must be < the StepId maximum");
  }
  if (proc < 0) throw std::invalid_argument("Access proc must be >= 0");
  if (data < 0 || data >= dataSpace_.numData()) {
    throw std::invalid_argument("Access data id out of DataSpace range");
  }
  if (weight <= 0) throw std::invalid_argument("Access weight must be > 0");
  accesses_.push_back(Access{step, proc, data, weight});
  finalized_ = false;
}

void ReferenceTrace::finalize() {
  if (finalized_) return;
  // Weights are > 0, so no merged weight exceeds the total: checking the
  // total covers the merge below too.
  Cost total = 0;
  for (const Access& a : accesses_) {
    if (a.weight > std::numeric_limits<Cost>::max() - total) {
      throw std::invalid_argument(
          "ReferenceTrace: total access weight overflows Cost");
    }
    total += a.weight;
  }
  const auto byStepDataProc = [](const Access& a, const Access& b) {
    if (a.step != b.step) return a.step < b.step;
    if (a.data != b.data) return a.data < b.data;
    return a.proc < b.proc;
  };
  // saveTrace writes finalized (sorted) traces, so loaded ones usually
  // arrive in order; the merge below runs either way.
  if (!std::is_sorted(accesses_.begin(), accesses_.end(), byStepDataProc)) {
    std::sort(accesses_.begin(), accesses_.end(), byStepDataProc);
  }
  // Merge duplicate (step, data, proc) triples by summing weights.
  std::size_t out = 0;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    if (out > 0 && accesses_[out - 1].step == accesses_[i].step &&
        accesses_[out - 1].data == accesses_[i].data &&
        accesses_[out - 1].proc == accesses_[i].proc) {
      accesses_[out - 1].weight += accesses_[i].weight;
    } else {
      accesses_[out++] = accesses_[i];
    }
  }
  accesses_.resize(out);

  numSteps_ = accesses_.empty() ? 0 : accesses_.back().step + 1;
  totalWeight_ = total;
  finalized_ = true;
}

}  // namespace pimsched
