#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/health.hpp"
#include "fleet/selector.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"
#include "serve/stream.hpp"

namespace pimsched::fleet {

/// Multi-array, multi-tenant scheduling service: co-schedules a job
/// stream across a fleet of PIM arrays behind the same JobService
/// interface as SchedulingService, so it slots into the protocol handler
/// and daemon unchanged (and can itself be a shard behind ShardedService).
///
/// Admission is tenant-aware. Each tenant owns a priority queue; dispatch
/// picks the tenant candidate with the highest *effective* priority —
/// base priority plus an aging boost of one level per `agingMs` waited,
/// capped at `agingLimit`, so a starved low-priority tenant eventually
/// outranks a flood of fresh high-priority work. Effective-priority ties
/// break by weighted fair shares via stride scheduling: each dispatch
/// charges the tenant 1/weight of virtual work and the tenant with the
/// least virtual work goes first (an idle tenant re-activates at the
/// current minimum so it cannot bank credit), with the tenant name as the
/// final deterministic tie-break. Per-tenant backpressure: a tenant may
/// hold at most `tenantQueueDepth` queued jobs; the fleet-wide bound is
/// `maxQueueDepth`.
///
/// Array placement per dispatched job goes through ArraySelector
/// (cost | roundrobin | leastloaded; PIMSCHED_FLEET_POLICY overrides the
/// configured policy when `policyFromEnv`). A job placed on an array runs
/// with the array's canonical standing faults merged in front of its own
/// specs; on a healthy array this is byte-identical to the non-fleet
/// SchedulingService path.
///
/// Batch/serve mode switch (drain-threshold, after the GPGPU-Sim
/// dyn-thresh DRAM scheduler): requests marked `batch` only start while
/// the latency-sensitive serve backlog is at or below `drainThreshold`;
/// once it grows past the threshold the dispatcher flips back to serve
/// mode. The switch changes which class is *preferred*, never idles a
/// free slot while any dispatchable job exists, and counts its
/// transitions and per-mode occupancy.
///
/// The result cache is a true LRU keyed by jobDigest | array fault
/// signature: all healthy arrays of one shape share entries (signature
/// ""), while a result computed on a degraded array never masquerades as
/// the healthy answer. A submit probes the signatures of the arrays
/// currently eligible for its shape, healthy first.
///
/// Live fault drift (applyDrift / the fault-inject and heal protocol
/// verbs): an array's fault state can change while the daemon runs. Each
/// drift event atomically swaps the array's state (new fault signature),
/// bumps the array's fault epoch, lets the HealthMonitor reclassify it
/// (healthy / degraded / quarantined with re-admission hysteresis),
/// re-plans every queued job through the selector, and invalidates
/// result-cache entries whose signature no longer matches any live
/// array. Placement avoids quarantined arrays whenever an admissible
/// alternative exists, queued jobs carry a *planned* array (what the
/// rebalancer migrates), and a job whose array drifted mid-run is
/// reconciled before its result is served: kept if still valid, patched
/// via core/repair, or fully re-solved — never served stale. Drift-broken
/// runs requeue onto another array instead of failing, even while
/// draining (counted serve.drain.requeued), so a SIGTERM drain cannot
/// strand migrated work.
///
/// Counters: fleet.jobs.{accepted,rejected,completed,failed,cancelled,
/// deadline_missed}, fleet.cache.{hit,miss}, fleet.queue.{enqueued,
/// dequeued}, fleet.job.retry, fleet.mode.{switches,serve_ns,batch_ns},
/// fleet.dispatch.{serve,batch}, fleet.health.{drift_events,degraded,
/// quarantined,readmitted,stale_served}, fleet.rebalance.{requeued,kept,
/// repaired,resolved,cache_invalidated}, serve.drain.requeued, per-tenant
/// tenant.<id>.{submitted,dispatched,completed,contended}; timers
/// fleet.job.wait / fleet.job.run.
class FleetService final : public serve::JobService {
 public:
  struct Config {
    /// The fleet topology; at least one array required.
    std::vector<ArraySpec> arrays;
    FleetPolicy policy = FleetPolicy::kCost;
    /// Apply the PIMSCHED_FLEET_POLICY environment override when set.
    bool policyFromEnv = true;
    /// Jobs in flight at once per array.
    unsigned concurrencyPerArray = 1;
    /// Fleet-wide queued-job bound; submissions past it are rejected.
    std::size_t maxQueueDepth = 256;
    /// Per-tenant queued-job quota; a tenant at its quota is rejected
    /// with a structured reason while other tenants keep submitting.
    std::size_t tenantQueueDepth = 64;
    bool cacheEnabled = true;
    std::size_t maxCacheEntries = 1024;
    /// Weighted fair shares: tenant name -> weight (> 0). Unlisted
    /// tenants get `defaultTenantWeight`.
    std::map<std::string, double> tenantWeights;
    double defaultTenantWeight = 1.0;
    /// Priority aging: a queued job gains one effective priority level
    /// per agingMs waited, up to agingLimit levels. agingMs <= 0 disables
    /// aging.
    std::int64_t agingMs = 1000;
    int agingLimit = 8;
    /// Batch jobs may start while the serve backlog is <= drainThreshold.
    std::size_t drainThreshold = 0;
    /// Health-state thresholds for live fault drift (see health.hpp).
    HealthPolicy health;
    /// Test hook, as in SchedulingService::Config.
    std::function<void(int attempt)> onJobAttempt;
    /// Test/telemetry hook invoked (under the service lock — it must not
    /// call back into the service) at every dispatch with the job id, the
    /// hosting array's name and the tenant.
    std::function<void(serve::JobId id, const std::string& array,
                       const std::string& tenant)>
        onDispatch;
  };

  /// Deterministic snapshots for benches and the stats protocol verb.
  struct ArrayStatsRow {
    std::string name;
    int rows = 0, cols = 0;
    int aliveProcs = 0, deadProcs = 0, deadLinks = 0;
    bool healthy = true;
    std::string health;  ///< HealthMonitor verdict name
    std::int64_t driftEpoch = 0;
    std::size_t running = 0;
    std::size_t planned = 0;  ///< queued jobs currently planned here
    std::int64_t dispatched = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    double outstandingWork = 0;
  };
  /// Live-drift and rebalancing accounting (fleetStats / statsExtra).
  struct RebalanceStatsRow {
    std::int64_t driftEvents = 0;
    std::int64_t requeued = 0;  ///< queued jobs whose plan was migrated
    std::int64_t kept = 0;      ///< drifted results still valid as-is
    std::int64_t repaired = 0;  ///< drifted results patched by core/repair
    std::int64_t resolved = 0;  ///< drifted results fully re-solved
    std::int64_t cacheInvalidated = 0;
    std::int64_t drainRequeued = 0;  ///< requeues that happened mid-drain
    /// Results served without reconciliation against the live fault
    /// epoch. Structurally zero — the closed-loop tripwire the chaos
    /// bench gates on.
    std::int64_t staleServed = 0;
  };
  struct TenantStatsRow {
    std::string name;
    double weight = 1.0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::int64_t submitted = 0;
    std::int64_t dispatched = 0;
    /// Dispatches won while >= 2 tenants had queued work — the
    /// denominator-free fair-share signal (uncontended dispatches say
    /// nothing about weights).
    std::int64_t contended = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::int64_t rejected = 0;
    std::int64_t maxWaitNs = 0;
  };
  struct FleetStats {
    FleetPolicy policy = FleetPolicy::kCost;
    bool batchMode = false;
    std::int64_t modeSwitches = 0;
    std::int64_t serveDispatches = 0;
    std::int64_t batchDispatches = 0;
    std::vector<ArrayStatsRow> arrays;
    std::vector<TenantStatsRow> tenants;  ///< sorted by name
    RebalanceStatsRow rebalance;
  };

  explicit FleetService(Config config);
  ~FleetService() override;

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  serve::SubmitOutcome submit(serve::JobRequest request) override;
  /// submit() with the digest precomputed (sharded composition).
  serve::SubmitOutcome submitWithDigest(serve::JobRequest request,
                                        const Digest& digest);
  /// Streaming sessions pin to a hosting array when created (chosen
  /// deterministically by session name among the health-admissible arrays
  /// of the window's shape) and run every window with that array's
  /// canonical standing faults merged in front of the request's specs.
  /// Fault drift on an array invalidates exactly the sessions pinned to
  /// it — their next window re-pins and solves cold under the new state.
  serve::StreamOutcome submitStream(serve::StreamRequest request) override;
  bool closeStream(const std::string& session) override;
  [[nodiscard]] std::optional<serve::JobStatus> status(
      serve::JobId id) const override;
  [[nodiscard]] std::shared_ptr<const serve::JobResult> result(
      serve::JobId id, bool wait = true) override;
  bool cancel(serve::JobId id) override;
  [[nodiscard]] serve::ServiceStats stats() const override;
  /// Adds a "fleet" object (policy, mode, per-array and per-tenant
  /// breakdowns) to a protocol stats reply.
  void statsExtra(serve::Json& reply) const override;
  void drain() override;
  /// Live fault drift: validates `specs` against the named array's grid,
  /// swaps in the new array state (heal == rebuild from the boot spec),
  /// bumps the fault epoch, reclassifies health, re-plans queued jobs and
  /// invalidates orphaned result-cache entries — all atomically under the
  /// service lock. A request that would not change the fault state (heal
  /// of an uninjected array, all-duplicate specs) is an ok no-op that
  /// bumps nothing.
  serve::DriftOutcome applyDrift(const std::string& array,
                                 const std::vector<std::string>& specs,
                                 bool heal) override;

  [[nodiscard]] FleetStats fleetStats() const;
  [[nodiscard]] const ArrayFleet& fleet() const { return fleet_; }
  [[nodiscard]] FleetPolicy policy() const { return selector_.policy(); }

 private:
  struct Job {
    serve::JobId id = -1;
    serve::JobRequest request;
    serve::JobState state = serve::JobState::kQueued;
    Digest digest;
    std::string error;
    std::string errorKind;
    int attempts = 0;
    std::shared_ptr<const serve::JobResult> result;
    std::int64_t submitNs = 0;
    std::int64_t deadlineNs = -1;
    /// Whole-trace per-processor reference weights, the selector input.
    std::vector<ProcWeight> aggRefs;
    int arrayIndex = -1;    ///< hosting array while running
    int plannedArray = -1;  ///< selector's plan while queued (rebalanced
                            ///< on drift); backlog is charged to it
    Cost estCost = 0;       ///< selector estimate charged to the array
    /// Canonical faults of the hosting array, copied at dispatch so the
    /// run never reads fleet state without the lock (drift swaps it).
    std::vector<std::string> arrayFaults;
    /// The hosting array's fault epoch at dispatch; a mismatch at
    /// completion means the array drifted mid-run and the result must be
    /// reconciled before it is served.
    std::int64_t faultEpoch = 0;
  };

  struct Tenant {
    std::string name;
    double weight = 1.0;
    /// Stride-scheduling pass value: += 1/weight per dispatch.
    double virtualWork = 0;
    /// Queued jobs by (-basePriority, id); effective priority adds the
    /// aging boost at dispatch time.
    std::map<std::pair<int, serve::JobId>, std::shared_ptr<Job>> queue;
    std::size_t running = 0;
    std::int64_t submitted = 0, dispatched = 0, contended = 0,
                 completed = 0, failed = 0, rejected = 0, maxWaitNs = 0;
    obs::Counter* cSubmitted = nullptr;
    obs::Counter* cDispatched = nullptr;
    obs::Counter* cCompleted = nullptr;
    obs::Counter* cContended = nullptr;
  };

  struct CacheEntry {
    std::shared_ptr<const serve::JobResult> result;
    /// `result` re-stamped as a cache hit, made on the first hit and
    /// shared by every later one.
    std::shared_ptr<const serve::JobResult> hit;
    std::list<std::string>::iterator order;
  };

  /// The tenant record, created on first touch with its configured
  /// weight and lazily-resolved obs handles.
  Tenant& tenantLocked(const std::string& name);
  /// Effective priority of a queued job now: base + aging boost.
  [[nodiscard]] int effectivePriorityLocked(const Job& job,
                                            std::int64_t nowNs) const;
  /// Best queued candidate of `tenant` for the class (batch/serve),
  /// nullptr when none. Highest effective priority, then lowest id.
  [[nodiscard]] std::shared_ptr<Job> bestCandidateLocked(
      const Tenant& tenant, bool batch, std::int64_t nowNs,
      int* effPriority) const;
  void expireOverdueLocked(std::int64_t nowNs);
  /// Plans a queued job onto an array (admissible arrays preferred,
  /// selector policy) and charges the backlog to it.
  void planJobLocked(const std::shared_ptr<Job>& job);
  /// Reverses planJobLocked's load accounting.
  void unplanLocked(const std::shared_ptr<Job>& job);
  /// Eligible arrays of a shape restricted to health-admissible ones;
  /// falls back to the unrestricted set when nothing is admissible so a
  /// job is never stranded by an all-quarantined fleet.
  [[nodiscard]] std::vector<std::size_t> admissibleEligibleLocked(
      int rows, int cols, std::int64_t nowNs);
  /// Re-plans every queued job (drift reaction); returns how many moved.
  std::int64_t replanQueuedLocked();
  /// Drops result-cache entries whose fault signature no live array
  /// carries any more; returns how many were invalidated.
  std::int64_t invalidateStaleCacheLocked();
  /// Puts a job whose run was broken by drift back into its tenant queue
  /// with a fresh plan (allowed mid-drain — see serve.drain.requeued).
  void requeueLocked(const std::shared_ptr<Job>& job, Tenant& tenant);
  void dispatchLocked();
  /// Dispatches the best job of the given class; returns false when no
  /// job of the class could be placed on a free array.
  bool dispatchClassLocked(bool batch, std::int64_t nowNs);
  void runJob(const std::shared_ptr<Job>& job);
  void finishLocked(Job& job, serve::JobState state);
  void removeFromQueueLocked(const std::shared_ptr<Job>& job);
  void cacheInsertLocked(const std::string& key,
                         std::shared_ptr<const serve::JobResult> result);
  [[nodiscard]] std::size_t freeSlotsLocked() const;
  void switchModeLocked(bool toBatch);

  Config config_;
  ArrayFleet fleet_;
  ArraySelector selector_;
  HealthMonitor health_;
  /// Warm streaming-session state, tagged by hosting array name (owns its
  /// own locking; never touched while mutex_ is held — see applyDrift).
  serve::StreamSessionManager streams_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool draining_ = false;
  bool batchMode_ = false;
  std::int64_t modeEnterNs_ = 0;
  std::int64_t modeSwitches_ = 0;
  std::int64_t serveDispatches_ = 0, batchDispatches_ = 0;
  serve::JobId nextId_ = 1;
  std::map<serve::JobId, std::shared_ptr<Job>> jobs_;
  std::map<std::string, Tenant> tenants_;
  std::size_t queuedServe_ = 0, queuedBatch_ = 0;
  /// Per-array load, indexed like fleet_.
  std::vector<ArrayLoad> loads_;
  std::vector<std::int64_t> arrayDispatched_, arrayCompleted_,
      arrayFailed_;
  /// Monotonic per-array drift counter; a running job whose captured
  /// epoch no longer matches must reconcile its result (see runJob).
  std::vector<std::int64_t> faultEpoch_;
  /// True-LRU result cache keyed by digest hex + "|" + array fault
  /// signature.
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> cacheOrder_;
  std::int64_t statAccepted_ = 0, statRejected_ = 0, statCompleted_ = 0,
               statFailed_ = 0, statCancelled_ = 0, statExpired_ = 0,
               statCacheHits_ = 0, statCacheMisses_ = 0;
  RebalanceStatsRow rebalance_;
};

/// Aggregates a finalized trace into its whole-trace per-processor
/// reference weights (sorted by ProcId) — the selector's input and the
/// key the per-array cost caches memoize on.
[[nodiscard]] std::vector<ProcWeight> aggregateTraceRefs(
    const ReferenceTrace& trace);

}  // namespace pimsched::fleet
