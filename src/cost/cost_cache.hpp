#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cost/center_costs.hpp"
#include "cost/cost_model.hpp"

namespace pimsched {

/// FNV-1a over the (proc, weight) pairs of a reference string. Serving
/// cost depends only on this string (plus the grid and hopCost fixed per
/// cache), so equal strings — which matmul / LU kernels produce for many
/// data — share one cost table.
[[nodiscard]] std::uint64_t referenceStringHash(
    std::span<const ProcWeight> refs);

/// Thread-safe memoization of separableCenterCosts keyed by the full
/// reference string, so the table for a reference string looked up many
/// times is computed once and copied out afterwards. The fleet's per-array
/// selector estimates use it (fleet/fleet.hpp); the GOMCDS driver does not
/// — it computes each class's rows once with separableCenterCostsInto.
///
/// Collision-safe: entries bucket by hash but store the full key, and a
/// lookup compares the strings — two distinct strings landing on the same
/// hash both get correct tables. The cache is sharded 16 ways by hash;
/// a miss computes while holding only its shard, which also deduplicates
/// concurrent misses of the same string. Entries are heap-stable and
/// immutable once published, so the hit path copies the table out AFTER
/// dropping the shard lock — concurrent hits on one shard no longer
/// serialize on the memcpy. Shards are cache-line aligned so two shards'
/// mutexes never share a line.
///
/// Counters: `cost.center_cache.hit` / `cost.center_cache.miss` (global
/// obs registry) plus per-instance hits()/misses() for the bench reports.
class CenterCostCache {
 public:
  /// `hashMask` is AND-ed onto every computed hash. The default keeps the
  /// full 64 bits; tests pass a narrow mask to force distinct strings onto
  /// colliding hashes and exercise the full-key comparison.
  explicit CenterCostCache(const CostModel& model,
                           std::uint64_t hashMask = ~0ull);

  /// Writes the cost table of `refs` into `out` (resized to the grid
  /// size). Returns true on a cache hit, false when the table had to be
  /// computed (and was inserted).
  bool costsInto(std::span<const ProcWeight> refs, std::vector<Cost>& out);

  /// Same, writing into caller-owned memory of exactly the grid size —
  /// lets serve-table builders fill their rows in place with no staging
  /// copy. out.size() must equal the grid's processor count.
  bool costsInto(std::span<const ProcWeight> refs, std::span<Cost> out);

  [[nodiscard]] std::int64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Number of distinct reference strings stored.
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::vector<ProcWeight> key;
    std::vector<Cost> costs;
  };
  struct alignas(64) Shard {
    std::mutex mutex;
    /// hash -> entries whose (masked) hash equals it; usually one. Held by
    /// pointer so a published Entry never moves — lookups may read it
    /// after releasing the shard lock.
    std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Entry>>>
        buckets;
    /// Histogram scratch of the misses computed under this shard's lock.
    CenterCostScratch scratch;
  };
  static constexpr std::size_t kShards = 16;

  /// Finds or computes-and-inserts the entry for `refs`; sets `hit` and
  /// bumps the counters. The returned entry is immutable and outlives the
  /// call (stable heap storage), so callers copy from it lock-free.
  const Entry& lookupOrInsert(std::span<const ProcWeight> refs, bool& hit);

  const CostModel* model_;
  std::uint64_t hashMask_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::array<Shard, kShards> shards_;
};

}  // namespace pimsched
