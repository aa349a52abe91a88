#include "serve/service.hpp"

#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "fault/fault_map.hpp"
#include "fault/fault_trace.hpp"
#include "obs/obs.hpp"
#include "pim/grid.hpp"
#include "serve/json.hpp"
#include "serve/stream.hpp"
#include "util/thread_pool.hpp"

namespace pimsched::serve {

std::string toString(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

Digest jobDigest(const JobRequest& request) {
  const Digest trace = traceDigest(request.trace);
  const Digest config = configDigest(request.config);
  DigestBuilder b;
  b.str("pimjob");
  b.u64(trace.hi);
  b.u64(trace.lo);
  b.u64(config.hi);
  b.u64(config.lo);
  b.i64(request.gridRows);
  b.i64(request.gridCols);
  b.i64(static_cast<std::int64_t>(request.method));
  // Fault specs change the answer, so they must split the result cache;
  // length-prefixed so spec lists cannot collide by concatenation.
  b.u64(static_cast<std::uint64_t>(request.faults.size()));
  for (const std::string& spec : request.faults) b.str(spec);
  // The tenant is an isolation boundary, not an input to the solve:
  // length-prefixed like the specs above so it cannot collide with them.
  b.str(request.tenant);
  return b.digest();
}

void JobService::statsExtra(Json&) const {}

DriftOutcome JobService::applyDrift(const std::string& array,
                                    const std::vector<std::string>&, bool) {
  DriftOutcome out;
  out.array = array;
  out.error = "fault drift requires a fleet service (start with --fleet)";
  return out;
}

StreamOutcome JobService::submitStream(StreamRequest request) {
  StreamOutcome out;
  out.session = std::move(request.session);
  out.error = "streaming is not supported by this service";
  out.errorKind = "invalid";
  return out;
}

bool JobService::closeStream(const std::string&) { return false; }

SchedulingService::SchedulingService() : SchedulingService(Config()) {}

SchedulingService::SchedulingService(Config config)
    : config_(config),
      streams_(std::make_unique<StreamSessionManager>(
          config.maxStreamSessions)) {
  if (config_.concurrency == 0) config_.concurrency = 1;
}

StreamOutcome SchedulingService::submitStream(StreamRequest request) {
  return streams_->submit(std::move(request));
}

bool SchedulingService::closeStream(const std::string& session) {
  return streams_->close(session);
}

SchedulingService::~SchedulingService() { drain(); }

SubmitOutcome SchedulingService::submit(JobRequest request) {
  if (!request.trace.finalized()) request.trace.finalize();
  const Digest digest = jobDigest(request);
  return submitWithDigest(std::move(request), digest);
}

SubmitOutcome SchedulingService::submitWithDigest(JobRequest request,
                                                  const Digest& digest) {
  if (!request.trace.finalized()) request.trace.finalize();

  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    ++statRejected_;
    PIMSCHED_COUNTER_ADD("serve.jobs.rejected", 1);
    return SubmitOutcome{false, -1, "service is draining", false};
  }

  if (config_.cacheEnabled) {
    const auto it = cache_.find(digest.hex());
    if (it != cache_.end()) {
      ++statCacheHits_;
      ++statAccepted_;
      ++statCompleted_;
      PIMSCHED_COUNTER_ADD("serve.cache.hit", 1);
      PIMSCHED_COUNTER_ADD("serve.jobs.accepted", 1);
      PIMSCHED_COUNTER_ADD("serve.jobs.completed", 1);
      // A hit is a use: promote the entry to most-recently-used so hot
      // digests survive eviction pressure.
      cacheOrder_.splice(cacheOrder_.end(), cacheOrder_, it->second.order);
      // The cached JobResult is shared; the hit copy re-stamps only the
      // per-job fields, which are the same for every hit.
      if (it->second.hit == nullptr) {
        auto hit = std::make_shared<JobResult>(*it->second.result);
        hit->cacheHit = true;
        hit->waitNs = 0;
        hit->runNs = 0;
        it->second.hit = std::move(hit);
      }
      auto job = std::make_shared<Job>();
      job->id = nextId_++;
      job->state = JobState::kDone;
      job->digest = digest;
      job->result = it->second.hit;
      job->request.priority = request.priority;
      jobs_.emplace(job->id, job);
      cv_.notify_all();
      return SubmitOutcome{true, job->id, "", true};
    }
    ++statCacheMisses_;
    PIMSCHED_COUNTER_ADD("serve.cache.miss", 1);
  }

  // An identical job already queued or running: attach instead of solving
  // twice. The follower never enters the queue; it resolves (with the
  // exact same shared JobResult) when the leader reaches a terminal state.
  if (const auto it = inflight_.find(digest.hex()); it != inflight_.end()) {
    const std::shared_ptr<Job>& leader = it->second;
    auto job = std::make_shared<Job>();
    job->id = nextId_++;
    job->digest = digest;
    job->request.priority = request.priority;
    job->submitNs = obs::nowNs();
    job->coalescedWith = leader->id;
    leader->followers.push_back(job);
    jobs_.emplace(job->id, job);
    ++statAccepted_;
    ++statCoalesced_;
    PIMSCHED_COUNTER_ADD("serve.jobs.accepted", 1);
    PIMSCHED_COUNTER_ADD("serve.jobs.coalesced", 1);
    // A hotter submission drags the whole group forward in the queue.
    if (leader->state == JobState::kQueued &&
        request.priority > leader->request.priority) {
      queue_.erase(std::make_pair(-leader->request.priority, leader->id));
      leader->request.priority = request.priority;
      queue_.emplace(std::make_pair(-leader->request.priority, leader->id),
                     leader);
    }
    return SubmitOutcome{true, job->id, "", false};
  }

  if (queue_.size() >= config_.maxQueueDepth) {
    ++statRejected_;
    PIMSCHED_COUNTER_ADD("serve.jobs.rejected", 1);
    return SubmitOutcome{
        false, -1,
        "queue full (" + std::to_string(queue_.size()) + " jobs queued, "
        "limit " + std::to_string(config_.maxQueueDepth) + ")",
        false};
  }

  auto job = std::make_shared<Job>();
  job->id = nextId_++;
  job->request = std::move(request);
  job->digest = digest;
  job->submitNs = obs::nowNs();
  if (job->request.deadlineMs >= 0) {
    job->deadlineNs = job->submitNs + job->request.deadlineMs * 1'000'000;
  }
  jobs_.emplace(job->id, job);
  queue_.emplace(std::make_pair(-job->request.priority, job->id), job);
  inflight_[digest.hex()] = job;
  ++statAccepted_;
  PIMSCHED_COUNTER_ADD("serve.jobs.accepted", 1);
  PIMSCHED_COUNTER_ADD("serve.queue.enqueued", 1);
  maybeDispatchLocked();
  return SubmitOutcome{true, job->id, "", false};
}

void SchedulingService::maybeDispatchLocked() {
  while (running_ < config_.concurrency && !queue_.empty()) {
    auto it = queue_.begin();
    std::shared_ptr<Job> job = it->second;
    queue_.erase(it);
    PIMSCHED_COUNTER_ADD("serve.queue.dequeued", 1);
    if (job->deadlineNs >= 0 && obs::nowNs() > job->deadlineNs) {
      finishLocked(*job, JobState::kExpired);
      continue;
    }
    job->state = JobState::kRunning;
    ++job->attempts;
    ++running_;
    ThreadPool::global().submit([this, job] { runJob(job); });
  }
}

void SchedulingService::finishLocked(Job& job, JobState state) {
  job.state = state;
  switch (state) {
    case JobState::kDone:
      ++statCompleted_;
      PIMSCHED_COUNTER_ADD("serve.jobs.completed", 1);
      break;
    case JobState::kFailed:
      ++statFailed_;
      PIMSCHED_COUNTER_ADD("serve.jobs.failed", 1);
      break;
    case JobState::kCancelled:
      ++statCancelled_;
      PIMSCHED_COUNTER_ADD("serve.jobs.cancelled", 1);
      break;
    case JobState::kExpired:
      ++statExpired_;
      PIMSCHED_COUNTER_ADD("serve.jobs.deadline_missed", 1);
      break;
    default: break;
  }
  if (!job.followers.empty()) {
    if (state == JobState::kDone || state == JobState::kFailed) {
      // Fan the leader's outcome out to every coalesced follower: one
      // solve, K identical results (the very same shared JobResult).
      for (const std::shared_ptr<Job>& follower : job.followers) {
        follower->result = job.result;
        follower->error = job.error;
        follower->errorKind = job.errorKind;
        follower->attempts = job.attempts;
        follower->coalescedWith = -1;
        finishLocked(*follower, state);
      }
      job.followers.clear();
    } else {
      // The leader was cancelled or expired before running, but its
      // followers still want the answer: promote the first follower to
      // leader so the group is not silently dropped.
      std::shared_ptr<Job> heir = job.followers.front();
      job.followers.erase(job.followers.begin());
      heir->followers = std::move(job.followers);
      job.followers.clear();
      for (const std::shared_ptr<Job>& follower : heir->followers) {
        follower->coalescedWith = heir->id;
      }
      heir->coalescedWith = -1;
      const int heirPriority = heir->request.priority;
      heir->request = job.request;  // followers never stored the payload
      heir->request.priority = heirPriority;
      heir->request.deadlineMs = -1;  // followers carry no deadline
      heir->deadlineNs = -1;
      queue_.emplace(std::make_pair(-heir->request.priority, heir->id),
                     heir);
      inflight_[heir->digest.hex()] = heir;
      PIMSCHED_COUNTER_ADD("serve.queue.enqueued", 1);
    }
  }
  // Terminal jobs stop being a coalescing join point (unless a promoted
  // heir has just taken the slot over).
  const auto it = inflight_.find(job.digest.hex());
  if (it != inflight_.end() && it->second.get() == &job) inflight_.erase(it);
  cv_.notify_all();
}

void SchedulingService::cacheInsertLocked(
    const Digest& digest, std::shared_ptr<const JobResult> result) {
  if (!config_.cacheEnabled || config_.maxCacheEntries == 0) return;
  std::string key = digest.hex();
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Re-insertion of a known digest refreshes the entry in place — no
    // duplicate order node, just a promotion to most-recently-used.
    it->second.result = std::move(result);
    it->second.hit = nullptr;
    cacheOrder_.splice(cacheOrder_.end(), cacheOrder_, it->second.order);
    return;
  }
  cacheOrder_.push_back(key);
  CacheEntry entry{std::move(result), nullptr, std::prev(cacheOrder_.end())};
  cache_.emplace(std::move(key), std::move(entry));
  while (cacheOrder_.size() > config_.maxCacheEntries) {
    cache_.erase(cacheOrder_.front());
    cacheOrder_.pop_front();
  }
}

JobError classifyJobError(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const UnreachableError& e) {
    return {e.what(), "unreachable", false};
  } catch (const std::invalid_argument& e) {
    return {e.what(), "invalid", false};
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (what.find("capacity infeasible") != std::string::npos) {
      return {what, "infeasible", false};
    }
    return {what, "internal", true};
  } catch (const std::exception& e) {
    return {e.what(), "internal", true};
  } catch (...) {
    return {"unknown error", "internal", true};
  }
}

std::shared_ptr<JobResult> executeJobRequest(
    const JobRequest& req, const std::vector<std::string>& arrayFaults) {
  const Grid grid(req.gridRows, req.gridCols);
  std::optional<FaultMap> faults;
  if (!arrayFaults.empty() || !req.faults.empty()) {
    faults.emplace(grid);
    for (const std::string& spec : arrayFaults) {
      applyFaultSpec(*faults, spec);
    }
    for (const std::string& spec : req.faults) {
      applyFaultSpec(*faults, spec);
    }
  }
  std::optional<Experiment> exp;
  if (faults.has_value()) {
    exp.emplace(req.trace, grid, *faults, req.config);
  } else {
    exp.emplace(req.trace, grid, req.config);
  }
  DataSchedule schedule = exp->schedule(req.method);
  if (faults.has_value()) {
    // Fault-oblivious methods (the baselines) can legally return here
    // with data on dead processors; refuse to serve such a schedule.
    const VerifyReport report =
        verifyScheduleFaults(schedule, exp->refs(), exp->costModel());
    if (!report.ok()) {
      throw UnreachableError(
          "schedule violates the fault state (" +
          std::to_string(report.issues.size()) + " issue(s), first: " +
          report.issues.front().detail + ")");
    }
  }
  auto result = std::make_shared<JobResult>();
  result->eval = evaluateSchedule(schedule, exp->refs(), exp->costModel(),
                                  req.config.threads);
  std::ostringstream os;
  saveSchedule(schedule, os);
  result->scheduleText = std::move(os).str();
  return result;
}

void SchedulingService::runJob(const std::shared_ptr<Job>& job) {
  const std::int64_t startNs = obs::nowNs();
  // attempts was bumped under the lock at dispatch; stable while running.
  const int attempt = job->attempts - 1;
  std::shared_ptr<JobResult> result;
  JobError error;
  try {
    PIMSCHED_SCOPED_TIMER("serve.job.run");
    if (config_.onJobAttempt) config_.onJobAttempt(attempt);
    result = executeJobRequest(job->request);
    result->digest = job->digest;
  } catch (...) {
    error = classifyJobError(std::current_exception());
    result.reset();
  }
  const std::int64_t endNs = obs::nowNs();

  std::unique_lock<std::mutex> lock(mutex_);
  if (result != nullptr) {
    result->waitNs = startNs - job->submitNs;
    result->runNs = endNs - startNs;
#ifndef PIMSCHED_NO_OBS
    obs::Registry::instance().timer("serve.job.wait").record(result->waitNs);
#endif
    job->result = result;
    cacheInsertLocked(job->digest, result);
    finishLocked(*job, JobState::kDone);
  } else if (error.transient && attempt == 0 && !draining_) {
    // One retry for transient worker failures: back on the queue at the
    // job's priority; a second failure of any kind is final.
    PIMSCHED_COUNTER_ADD("serve.job.retry", 1);
    PIMSCHED_COUNTER_ADD("serve.queue.enqueued", 1);
    job->state = JobState::kQueued;
    queue_.emplace(std::make_pair(-job->request.priority, job->id), job);
  } else {
    job->error = std::move(error.message);
    job->errorKind = std::move(error.kind);
    finishLocked(*job, JobState::kFailed);
  }
  --running_;
  maybeDispatchLocked();
  // cv_ is notified under the lock (finishLocked), so a drain()er that
  // observes running_ == 0 cannot race this task's last touch of *this.
  cv_.notify_all();
}

std::optional<JobStatus> SchedulingService::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobStatus s;
  s.state = job.state;
  s.priority = job.request.priority;
  s.digest = job.digest;
  s.error = job.error;
  s.errorKind = job.errorKind;
  s.attempts = job.attempts;
  return s;
}

std::shared_ptr<const JobResult> SchedulingService::result(JobId id,
                                                           bool wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return nullptr;
  const std::shared_ptr<Job> job = it->second;
  if (wait) {
    cv_.wait(lock, [&] { return isTerminal(job->state); });
  }
  return isTerminal(job->state) ? job->result : nullptr;
}

bool SchedulingService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state != JobState::kQueued) return false;
  if (job.coalescedWith >= 0) {
    // A coalesced follower: detach it from its leader; the leader (and
    // any other followers) are unaffected.
    const auto leaderIt = jobs_.find(job.coalescedWith);
    if (leaderIt != jobs_.end()) {
      auto& followers = leaderIt->second->followers;
      for (auto f = followers.begin(); f != followers.end(); ++f) {
        if ((*f)->id == id) {
          followers.erase(f);
          break;
        }
      }
    }
    job.coalescedWith = -1;
    finishLocked(job, JobState::kCancelled);
    return true;
  }
  queue_.erase(std::make_pair(-job.request.priority, job.id));
  PIMSCHED_COUNTER_ADD("serve.queue.dequeued", 1);
  finishLocked(job, JobState::kCancelled);
  // Cancelling a leader promotes its first follower back into the queue;
  // give it a worker if one is idle.
  maybeDispatchLocked();
  return true;
}

ServiceStats SchedulingService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.queueDepth = queue_.size();
  s.running = running_;
  s.accepted = statAccepted_;
  s.rejected = statRejected_;
  s.completed = statCompleted_;
  s.failed = statFailed_;
  s.cancelled = statCancelled_;
  s.expired = statExpired_;
  s.cacheHits = statCacheHits_;
  s.cacheMisses = statCacheMisses_;
  s.coalesced = statCoalesced_;
  s.cacheEntries = cache_.size();
  return s;
}

void SchedulingService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  // Queued jobs are still dispatched while draining — drain means "finish
  // everything accepted", not "abandon the queue".
  cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

}  // namespace pimsched::serve
