#include "cost/cost_cache.hpp"

#include <algorithm>

#include "cost/center_costs.hpp"
#include "obs/obs.hpp"

namespace pimsched {

std::uint64_t referenceStringHash(std::span<const ProcWeight> refs) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  for (const ProcWeight& pw : refs) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(pw.proc)));
    mix(static_cast<std::uint64_t>(pw.weight));
  }
  return h;
}

CenterCostCache::CenterCostCache(const CostModel& model,
                                 std::uint64_t hashMask)
    : model_(&model), hashMask_(hashMask) {}

const CenterCostCache::Entry& CenterCostCache::lookupOrInsert(
    std::span<const ProcWeight> refs, bool& hit) {
  const std::uint64_t hash = referenceStringHash(refs) & hashMask_;
  Shard& shard = shards_[hash % kShards];
  const Entry* found = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<std::unique_ptr<Entry>>& bucket = shard.buckets[hash];
    for (const std::unique_ptr<Entry>& entry : bucket) {
      if (entry->key.size() == refs.size() &&
          std::equal(entry->key.begin(), entry->key.end(), refs.begin())) {
        found = entry.get();
        break;
      }
    }
    if (found == nullptr) {
      // Computing under the shard lock deduplicates concurrent misses of
      // the same string (the second worker waits, then hits).
      auto fresh = std::make_unique<Entry>();
      fresh->key.assign(refs.begin(), refs.end());
      fresh->costs.resize(static_cast<std::size_t>(model_->grid().size()));
      separableCenterCostsInto(*model_, refs, fresh->costs, shard.scratch);
      found = fresh.get();
      bucket.push_back(std::move(fresh));
      hit = false;
      misses_.fetch_add(1, std::memory_order_relaxed);
      PIMSCHED_COUNTER_ADD("cost.center_cache.miss", 1);
      return *found;
    }
  }
  hit = true;
  hits_.fetch_add(1, std::memory_order_relaxed);
  PIMSCHED_COUNTER_ADD("cost.center_cache.hit", 1);
  return *found;
}

bool CenterCostCache::costsInto(std::span<const ProcWeight> refs,
                                std::vector<Cost>& out) {
  bool hit = false;
  const Entry& entry = lookupOrInsert(refs, hit);
  // Published entries never move or change, so the copy-out needs no lock.
  out.assign(entry.costs.begin(), entry.costs.end());
  return hit;
}

bool CenterCostCache::costsInto(std::span<const ProcWeight> refs,
                                std::span<Cost> out) {
  bool hit = false;
  const Entry& entry = lookupOrInsert(refs, hit);
  std::copy(entry.costs.begin(), entry.costs.end(), out.begin());
  return hit;
}

std::size_t CenterCostCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    // const_cast: mutex locking is not logically const-breaking here.
    std::lock_guard<std::mutex> lock(const_cast<Shard&>(shard).mutex);
    for (const auto& [hash, bucket] : shard.buckets) total += bucket.size();
  }
  return total;
}

void CenterCostCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.buckets.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace pimsched
