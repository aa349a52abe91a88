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

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace pimsched::serve {

using JobId = std::int64_t;

/// One unit of serving work: schedule `trace` on a gridRows x gridCols
/// array with `config` using `method`, and evaluate the result.
struct JobRequest {
  ReferenceTrace trace{DataSpace{}};
  int gridRows = 4;
  int gridCols = 4;
  PipelineConfig config;
  Method method = Method::kGomcds;

  /// Fault specs (fault_trace.hpp grammar: "proc:5", "link:2-3", "row:1",
  /// "col:2", "region:1,1,2,2", "cap:7=1", "uniform-procs:3@42", ...)
  /// applied in order to the grid before scheduling. Non-empty specs make
  /// the job fault-aware: the schedule avoids dead processors/links and is
  /// verified against the fault state before completing.
  std::vector<std::string> faults;

  /// Owning tenant for multi-tenant admission (fleet layer). Folded into
  /// the job digest (length-prefixed, like faults), so two tenants
  /// submitting byte-identical work keep separate result-cache entries
  /// and never coalesce across the tenant boundary. Empty = the default
  /// tenant; single-tenant deployments never set it.
  std::string tenant;

  /// Marks bulk (throughput) work for the fleet's batch/serve mode
  /// switch: batch jobs only dispatch while the latency-sensitive serve
  /// backlog is drained below the configured threshold. Not part of the
  /// digest — batching is a dispatch policy, not a different answer.
  /// Ignored outside FleetService.
  bool batch = false;

  /// Higher runs first; FIFO within a priority level.
  int priority = 0;
  /// Milliseconds from submission after which a still-queued job is
  /// dropped as deadline-missed instead of being started; < 0 = none.
  /// A job that starts in time always runs to completion.
  std::int64_t deadlineMs = -1;
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< pipeline threw; error message in JobStatus::error
  kCancelled,  ///< cancelled while queued
  kExpired,    ///< deadline passed before a worker picked it up
};

[[nodiscard]] std::string toString(JobState s);
[[nodiscard]] bool isTerminal(JobState s);

/// The product of one job: evaluation result, the serialised schedule (the
/// pimsched v1 text a PIM runtime would load), the job's content digest,
/// and the per-job profile snapshot (queue wait + run time).
struct JobResult {
  EvalResult eval;
  std::string scheduleText;
  Digest digest;
  bool cacheHit = false;
  /// The schedule was patched by core/repair after the hosting array's
  /// fault state drifted mid-run, instead of a full re-solve (fleet path
  /// only). Repaired results are correct under the new fault state but
  /// are not what a fresh solve would produce, so they are never cached.
  bool repaired = false;
  std::int64_t waitNs = 0;
  std::int64_t runNs = 0;
};

struct JobStatus {
  JobState state = JobState::kQueued;
  int priority = 0;
  Digest digest;
  std::string error;  ///< non-empty iff state == kFailed
  /// Failure class when state == kFailed: "unreachable" (the faulted mesh
  /// cannot carry the required traffic), "infeasible" (capacity), "invalid"
  /// (bad request inputs) or "internal" (unexpected; retried once).
  std::string errorKind;
  int attempts = 0;  ///< runs started (> 1 after a transient retry)
};

struct SubmitOutcome {
  bool accepted = false;
  JobId id = -1;
  std::string reason;   ///< rejection reason when !accepted
  bool cached = false;  ///< job completed instantly from the result cache
};

/// One window of a streaming session: the session name plus a complete
/// JobRequest whose trace is the *full evolving trace revision* as of this
/// window. Identical window prefixes across successive revisions are what
/// the warm solver exploits; everything except the trace must stay fixed
/// for the life of the session — a change resets the warm state (the reply
/// flags it) rather than serving a wrong-config answer.
struct StreamRequest {
  std::string session;
  JobRequest job;
};

/// Outcome of one streamed window. Unlike queued submissions the window is
/// solved synchronously in the caller's thread (warm state is only useful
/// when windows of one session run back to back), so the result is
/// delivered inline instead of via a job id.
struct StreamOutcome {
  bool ok = false;
  std::string error;      ///< why !ok
  std::string errorKind;  ///< job-error taxonomy ("invalid", "unreachable", ...)
  std::string session;    ///< echoed session name
  std::int64_t window = -1;  ///< 0-based window index within the session
  bool incremental = false;  ///< warm solver state was reused for this window
  std::int64_t reusedLayers = 0;   ///< per-class dp rows reused verbatim
  std::int64_t relaxedLayers = 0;  ///< per-class dp rows re-relaxed
  /// Warm state was (re)initialised for this window: first window of a
  /// session, a config change, an eviction, or a drift invalidation.
  bool reset = false;
  std::shared_ptr<const JobResult> result;
};

struct ServiceStats {
  std::size_t queueDepth = 0;
  std::size_t running = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t expired = 0;
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  /// Submissions that attached to an identical job already queued or
  /// running instead of enqueuing a second solve.
  std::int64_t coalesced = 0;
  std::size_t cacheEntries = 0;
  /// Worker shards behind these numbers (1 for a plain service; the
  /// sharded front end reports its shard count and sums the rest).
  std::size_t shards = 1;
};

/// Content address of a job: mixes traceDigest, configDigest, the grid
/// shape, the method, the fault specs and the tenant, so two submissions
/// that must produce identical schedules share one digest (and one
/// result-cache entry) while any input that can change the answer — or
/// cross a tenant isolation boundary — changes it; a faulted job never
/// aliases the healthy-mesh result.
[[nodiscard]] Digest jobDigest(const JobRequest& request);

/// Failure taxonomy of a job run. Transient failures ("internal") are
/// retried once by the services; everything else is a property of the
/// request and fails immediately with a structured kind.
struct JobError {
  std::string message;
  std::string kind;  ///< "unreachable" | "infeasible" | "invalid" | "internal"
  bool transient = false;
};

/// Classifies the in-flight exception of a failed job run. Shared by
/// SchedulingService and FleetService so both report the same error_kind
/// vocabulary and retry policy.
[[nodiscard]] JobError classifyJobError(const std::exception_ptr& ep);

/// The scheduling pipeline of one job, shared by every service: build the
/// grid, apply `arrayFaults` (the hosting array's standing faults, fleet
/// path only) then the request's own fault specs, schedule, verify against
/// the fault state when any fault is present, evaluate, serialize. Throws
/// on failure (classify with classifyJobError). With empty `arrayFaults`
/// this is byte-for-byte the non-fleet execution path, which is what makes
/// a single-healthy-array fleet bit-identical to SchedulingService.
/// Fills eval/scheduleText; digest/wait/run stamps are the caller's.
[[nodiscard]] std::shared_ptr<JobResult> executeJobRequest(
    const JobRequest& request,
    const std::vector<std::string>& arrayFaults = {});

class Json;

/// Result of a live fault-drift request (`fault-inject` / `heal`) against
/// a named array. Only fleet services support drift; everything else
/// returns ok == false with a reason.
struct DriftOutcome {
  bool ok = false;
  std::string error;        ///< why !ok (unknown array, bad spec, ...)
  std::string array;        ///< echoed array name
  std::string faultSignature;  ///< the array's new fault signature
  std::string health;       ///< health state name after the event
  int aliveProcs = 0;
  int deadProcs = 0;
  /// Queued jobs whose planned placement was migrated off/onto arrays by
  /// the rebalancer as a consequence of this event.
  std::int64_t requeued = 0;
  /// Result-cache entries invalidated because no live array carries
  /// their fault signature any more.
  std::int64_t cacheInvalidated = 0;
};

/// The serving surface the protocol layer talks to. SchedulingService is
/// the single-queue implementation; ShardedService (serve/sharded.hpp)
/// fans the same interface out over a fixed pool of worker shards with
/// consistent-hash job routing.
class JobService {
 public:
  virtual ~JobService() = default;

  virtual SubmitOutcome submit(JobRequest request) = 0;
  [[nodiscard]] virtual std::optional<JobStatus> status(JobId id) const = 0;
  [[nodiscard]] virtual std::shared_ptr<const JobResult> result(
      JobId id, bool wait = true) = 0;
  virtual bool cancel(JobId id) = 0;
  [[nodiscard]] virtual ServiceStats stats() const = 0;
  /// Appends implementation-specific fields to a protocol stats reply —
  /// per-shard queue depths for the sharded front end, per-array and
  /// per-tenant breakdowns for the fleet. Default adds nothing.
  virtual void statsExtra(Json& reply) const;
  /// Live fault drift against a named array: `heal` rebuilds the array
  /// from its boot spec, otherwise `specs` are injected on top of its
  /// current fault state. The fleet service overrides this; the default
  /// reports drift as unsupported.
  virtual DriftOutcome applyDrift(const std::string& array,
                                  const std::vector<std::string>& specs,
                                  bool heal);
  /// Streaming submission: solves one window of a long-lived session
  /// synchronously in the caller's thread, with warm solver state keyed by
  /// the session name (serve/stream.hpp). The default reports streaming as
  /// unsupported.
  virtual StreamOutcome submitStream(StreamRequest request);
  /// Closes a streaming session and drops its warm state; returns whether
  /// the session existed. Default: false.
  virtual bool closeStream(const std::string& session);
  /// Stops accepting submissions and blocks until every accepted job has
  /// reached a terminal state. Idempotent.
  virtual void drain() = 0;
};

class StreamSessionManager;

/// Persistent scheduling service: a bounded priority job queue feeding up
/// to `concurrency` jobs concurrently onto the shared util/thread_pool,
/// fronted by a content-addressed result cache. One service instance is
/// meant to live for the process (the daemon wraps exactly one), so the
/// thread pool, the serving cost cache state inside each job run, and the
/// result cache all survive across requests.
///
/// Backpressure: submissions beyond `maxQueueDepth` *queued* (not running)
/// jobs are rejected with a reason instead of blocking the caller.
///
/// Coalescing: a submission whose digest matches a job already queued or
/// running does not enqueue a second solve — it attaches to the in-flight
/// job and all attached submissions share one JobResult when it finishes
/// (serve.jobs.coalesced counts the attachments). The result cache is a
/// bounded true LRU: a hit promotes the entry to most-recently-used, an
/// insert past the bound evicts the least-recently-used entry.
///
/// Counters (global obs registry): serve.jobs.{accepted,rejected,
/// completed,failed,cancelled,deadline_missed,coalesced},
/// serve.cache.{hit,miss}, serve.queue.{enqueued,dequeued},
/// serve.job.retry; timers serve.job.wait / serve.job.run.
class SchedulingService : public JobService {
 public:
  struct Config {
    /// Queued-job bound; submissions past it are rejected with a reason.
    std::size_t maxQueueDepth = 64;
    /// Jobs in flight at once on the shared pool. Per-job parallelism
    /// (PipelineConfig::threads) degrades to sequential inside a pool
    /// worker, so throughput comes from cross-job concurrency here.
    unsigned concurrency = 2;
    bool cacheEnabled = true;
    /// Result-cache entry bound; the oldest entry is evicted past it.
    std::size_t maxCacheEntries = 1024;
    /// Streaming-session bound: warm per-session solver state beyond this
    /// is evicted least-recently-used (serve.session.evicted).
    std::size_t maxStreamSessions = 64;
    /// Test-only hook invoked at the start of every job run with the
    /// attempt number (0 on the first run, 1 on the retry). Exceptions it
    /// throws are classified exactly like pipeline errors — tests use it
    /// to fake transient worker failures.
    std::function<void(int attempt)> onJobAttempt;
  };

  SchedulingService();  ///< all Config defaults
  explicit SchedulingService(Config config);
  /// Drains: finishes every queued and running job before returning.
  ~SchedulingService() override;

  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  /// Finalizes the trace if needed, content-addresses the job, and either
  /// answers from the result cache (accepted + cached, job born kDone),
  /// coalesces it onto an identical in-flight job, enqueues it, or
  /// rejects it (queue full / draining).
  SubmitOutcome submit(JobRequest request) override;

  /// submit() with the content digest already computed — the sharded
  /// front end hashes the job once for routing and passes it down here so
  /// the trace is not digested twice.
  SubmitOutcome submitWithDigest(JobRequest request, const Digest& digest);

  /// One streamed window, solved synchronously with warm per-session
  /// solver state (serve/stream.hpp; bound by Config::maxStreamSessions).
  StreamOutcome submitStream(StreamRequest request) override;
  bool closeStream(const std::string& session) override;

  /// nullopt for an unknown id.
  [[nodiscard]] std::optional<JobStatus> status(JobId id) const override;

  /// The job's result. wait == true blocks until the job reaches a
  /// terminal state. Returns nullptr for unknown ids, non-terminal jobs
  /// (when !wait) and jobs that ended kFailed/kCancelled/kExpired — use
  /// status() to distinguish.
  [[nodiscard]] std::shared_ptr<const JobResult> result(
      JobId id, bool wait = true) override;

  /// Cancels a still-queued job; running or finished jobs return false.
  /// Cancelling a job with coalesced followers promotes the first
  /// follower to run in its place rather than failing the whole group.
  bool cancel(JobId id) override;

  [[nodiscard]] ServiceStats stats() const override;

  /// Stops accepting submissions and blocks until every queued and
  /// running job has reached a terminal state. Idempotent.
  void drain() override;

 private:
  struct Job {
    JobId id = -1;
    JobRequest request;
    JobState state = JobState::kQueued;
    Digest digest;
    std::string error;
    std::string errorKind;
    int attempts = 0;  ///< runs started; transient failures retry once
    std::shared_ptr<const JobResult> result;
    std::int64_t submitNs = 0;
    std::int64_t deadlineNs = -1;  ///< absolute, -1 = none
    /// Identical-digest submissions riding this (leader) job: they are
    /// never queued themselves and resolve when the leader does.
    std::vector<std::shared_ptr<Job>> followers;
    /// Leader id when this job is a coalesced follower, -1 otherwise.
    JobId coalescedWith = -1;
  };

  struct CacheEntry {
    std::shared_ptr<const JobResult> result;
    /// `result` re-stamped as a cache hit (cacheHit, zero wait/run), made
    /// on the first hit and shared by every later one: a hit keeps no copy
    /// of the schedule.
    std::shared_ptr<const JobResult> hit;
    /// Position in cacheOrder_ (front = LRU, back = MRU).
    std::list<std::string>::iterator order;
  };

  void maybeDispatchLocked();
  void runJob(const std::shared_ptr<Job>& job);
  void finishLocked(Job& job, JobState state);
  void cacheInsertLocked(const Digest& digest,
                         std::shared_ptr<const JobResult> result);

  Config config_;
  /// Warm streaming-session state (owns its own locking; constructed in
  /// the .cpp so this header does not pull in serve/stream.hpp).
  std::unique_ptr<StreamSessionManager> streams_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool draining_ = false;
  unsigned running_ = 0;
  JobId nextId_ = 1;
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  /// Queued jobs ordered by (-priority, id): begin() is the next to run.
  std::map<std::pair<int, JobId>, std::shared_ptr<Job>> queue_;
  /// True-LRU result cache keyed by digest hex.
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> cacheOrder_;  ///< front = LRU, back = MRU
  /// Non-terminal leader per digest hex, the coalescing join point.
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  std::int64_t statAccepted_ = 0, statRejected_ = 0, statCompleted_ = 0,
               statFailed_ = 0, statCancelled_ = 0, statExpired_ = 0,
               statCacheHits_ = 0, statCacheMisses_ = 0, statCoalesced_ = 0;
};

}  // namespace pimsched::serve
