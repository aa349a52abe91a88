#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "obs/obs.hpp"
#include "pim/grid.hpp"
#include "util/thread_pool.hpp"

namespace pimsched::serve {
namespace {

/// A small but non-trivial trace: every datum of an n x n array referenced
/// by a drifting processor across `steps` steps.
ReferenceTrace makeTrace(int n, int steps, int weightSeed = 1) {
  ReferenceTrace trace(DataSpace::singleSquare(n));
  const int numData = n * n;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < numData; ++d) {
      trace.add(s, (d + s) % 16, d, 1 + (d + s * weightSeed) % 3);
    }
  }
  trace.finalize();
  return trace;
}

JobRequest makeRequest(int n = 4, int steps = 6,
                       Method method = Method::kGomcds) {
  JobRequest request;
  request.trace = makeTrace(n, steps);
  request.config.numWindows = 3;
  request.method = method;
  return request;
}

/// Parks every worker of the shared pool until release(), so a job the
/// service has dispatched provably cannot start (or finish) while a test
/// arranges the queue behind it — deterministic, not timing-based. Each
/// gtest case runs in its own process, so holding the global pool here
/// cannot starve unrelated tests.
class PoolGate {
 public:
  PoolGate() {
    const unsigned workers = ThreadPool::global().workers();
    for (unsigned i = 0; i < workers; ++i) {
      ThreadPool::global().submit([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
        --held_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock,
             [&] { return held_ == ThreadPool::global().workers(); });
  }

  ~PoolGate() { release(); }

  /// Frees the workers and returns only once every gated task has left
  /// mutex_ and cv_, so the gate may be destroyed right after.
  void release() {
    std::unique_lock<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return held_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  unsigned held_ = 0;
  bool released_ = false;
};

TEST(JobDigest, ContentFieldsChangeItSchedulingKnobsDoNot) {
  const Digest base = jobDigest(makeRequest());
  EXPECT_EQ(jobDigest(makeRequest()), base);  // deterministic

  JobRequest method = makeRequest();
  method.method = Method::kScds;
  EXPECT_NE(jobDigest(method), base);

  JobRequest grid = makeRequest();
  grid.gridRows = 2;
  grid.gridCols = 8;
  EXPECT_NE(jobDigest(grid), base);

  JobRequest trace = makeRequest(4, 7);
  EXPECT_NE(jobDigest(trace), base);

  // Priority, deadline and thread count affect how a job runs, never what
  // it computes, so they must share the content address (and the cache).
  JobRequest knobs = makeRequest();
  knobs.priority = 9;
  knobs.deadlineMs = 1000;
  knobs.config.threads = 8;
  EXPECT_EQ(jobDigest(knobs), base);
}

TEST(SchedulingService, ResultMatchesDirectPipelineEvaluation) {
  const JobRequest request = makeRequest();
  SchedulingService service;
  const SubmitOutcome outcome = service.submit(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_FALSE(outcome.cached);
  const auto result = service.result(outcome.id);
  ASSERT_NE(result, nullptr);

  // Experiment keeps references to the trace and grid, so both need to
  // outlive it.
  ReferenceTrace trace = request.trace;
  trace.finalize();
  const Grid grid(request.gridRows, request.gridCols);
  const Experiment exp(trace, grid, request.config);
  const EvalResult direct = exp.evaluate(request.method);
  EXPECT_EQ(result->eval.aggregate.serve, direct.aggregate.serve);
  EXPECT_EQ(result->eval.aggregate.move, direct.aggregate.move);
  EXPECT_FALSE(result->cacheHit);
  EXPECT_FALSE(result->scheduleText.empty());
  EXPECT_EQ(result->digest, jobDigest(request));
  EXPECT_GE(result->runNs, 0);
  EXPECT_GE(result->waitNs, 0);

  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->error.empty());
}

TEST(SchedulingService, ResubmitIsServedFromTheResultCache) {
  SchedulingService service;
  const SubmitOutcome first = service.submit(makeRequest());
  ASSERT_TRUE(first.accepted);
  const auto firstResult = service.result(first.id);
  ASSERT_NE(firstResult, nullptr);

  const SubmitOutcome second = service.submit(makeRequest());
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
  EXPECT_NE(second.id, first.id);  // a fresh job id, answered instantly
  const auto cached = service.result(second.id, /*wait=*/false);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->cacheHit);
  EXPECT_EQ(cached->waitNs, 0);
  EXPECT_EQ(cached->runNs, 0);
  // The cached answer is the same answer.
  EXPECT_EQ(cached->eval.aggregate.total(),
            firstResult->eval.aggregate.total());
  EXPECT_EQ(cached->scheduleText, firstResult->scheduleText);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cacheHits, 1);
  EXPECT_EQ(stats.cacheMisses, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.cacheEntries, 1u);
}

TEST(SchedulingService, CacheHitsShareOneRestampedResult) {
  // A hot daemon answers most submits from the cache and keeps every job's
  // result; a copy per hit would grow its memory with each request served.
  SchedulingService service;
  const SubmitOutcome first = service.submit(makeRequest());
  const auto solved = service.result(first.id);
  ASSERT_NE(solved, nullptr);
  const auto hit1 = service.result(service.submit(makeRequest()).id);
  const auto hit2 = service.result(service.submit(makeRequest()).id);
  ASSERT_NE(hit1, nullptr);
  EXPECT_EQ(hit1.get(), hit2.get());
  EXPECT_NE(hit1.get(), solved.get());
  EXPECT_TRUE(hit1->cacheHit);
  EXPECT_EQ(hit1->waitNs, 0);
  EXPECT_EQ(hit1->runNs, 0);
  // The solving job's result keeps its own stamps.
  EXPECT_FALSE(solved->cacheHit);
  EXPECT_EQ(service.result(first.id).get(), solved.get());
}

TEST(SchedulingService, BackpressureRejectsWithAReason) {
  SchedulingService::Config config;
  config.maxQueueDepth = 0;  // nothing may wait in the queue
  config.cacheEnabled = false;
  SchedulingService service(config);
  const SubmitOutcome outcome = service.submit(makeRequest());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.id, -1);
  EXPECT_NE(outcome.reason.find("queue full"), std::string::npos)
      << outcome.reason;
  EXPECT_EQ(service.stats().rejected, 1);
}

TEST(SchedulingService, HigherPriorityJobsJumpTheQueue) {
  SchedulingService::Config config;
  config.concurrency = 1;
  config.cacheEnabled = false;
  SchedulingService service(config);

  // Occupy the single slot, then queue a low- and a high-priority job
  // while the pool gate guarantees the blocker has not finished.
  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  ASSERT_TRUE(blocker.accepted);
  JobRequest low = makeRequest(4, 6);
  low.priority = 0;
  JobRequest high = makeRequest(4, 7);  // distinct content
  high.priority = 10;
  const SubmitOutcome lowOut = service.submit(low);
  const SubmitOutcome highOut = service.submit(high);
  ASSERT_TRUE(lowOut.accepted);
  ASSERT_TRUE(highOut.accepted);
  EXPECT_EQ(service.status(lowOut.id)->state, JobState::kQueued);
  EXPECT_EQ(service.status(highOut.id)->state, JobState::kQueued);
  gate.release();

  const auto lowResult = service.result(lowOut.id);
  const auto highResult = service.result(highOut.id);
  ASSERT_NE(lowResult, nullptr);
  ASSERT_NE(highResult, nullptr);
  // The high-priority job was dequeued first, so the low-priority one also
  // waited out its run time.
  EXPECT_GT(lowResult->waitNs, highResult->waitNs);
}

TEST(SchedulingService, ExpiredDeadlineIsReportedNotRun) {
  SchedulingService::Config config;
  config.concurrency = 1;
  config.cacheEnabled = false;
  SchedulingService service(config);

  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  ASSERT_TRUE(blocker.accepted);
  JobRequest doomed = makeRequest();
  doomed.deadlineMs = 0;  // already past by the time the worker frees up
  const SubmitOutcome outcome = service.submit(doomed);
  ASSERT_TRUE(outcome.accepted);  // accepted, but expires at dequeue
  gate.release();

  EXPECT_EQ(service.result(outcome.id), nullptr);
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kExpired);
  EXPECT_EQ(service.stats().expired, 1);
  // The blocker itself is unaffected.
  EXPECT_NE(service.result(blocker.id), nullptr);
}

TEST(SchedulingService, CancelHitsQueuedJobsOnly) {
  SchedulingService::Config config;
  config.concurrency = 1;
  config.cacheEnabled = false;
  SchedulingService service(config);

  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  const SubmitOutcome queued = service.submit(makeRequest());
  ASSERT_TRUE(blocker.accepted);
  ASSERT_TRUE(queued.accepted);

  EXPECT_TRUE(service.cancel(queued.id));
  EXPECT_FALSE(service.cancel(queued.id));  // already terminal
  EXPECT_FALSE(service.cancel(9999));       // unknown id
  const auto status = service.status(queued.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_EQ(service.result(queued.id), nullptr);
  EXPECT_EQ(service.stats().cancelled, 1);

  // The dispatched blocker cannot be cancelled and still completes.
  EXPECT_FALSE(service.cancel(blocker.id));
  gate.release();
  EXPECT_NE(service.result(blocker.id), nullptr);
}

TEST(SchedulingService, PipelineFailureBecomesAFailedJobWithDetail) {
  JobRequest bad;
  bad.trace = ReferenceTrace(DataSpace::singleSquare(2));
  bad.trace.finalize();  // zero steps: the pipeline rejects it
  SchedulingService service;
  const SubmitOutcome outcome = service.submit(bad);
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(service.result(outcome.id), nullptr);
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_FALSE(status->error.empty());
  EXPECT_EQ(status->errorKind, "invalid");
  EXPECT_EQ(status->attempts, 1);  // invalid requests are never retried
  EXPECT_EQ(service.stats().failed, 1);
}

TEST(SchedulingService, FaultedJobCompletesWithAFaultCleanSchedule) {
  JobRequest request = makeRequest();
  request.faults = {"proc:5", "link:0-1"};
  SchedulingService service;
  const SubmitOutcome outcome = service.submit(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  const auto result = service.result(outcome.id);
  ASSERT_NE(result, nullptr);
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->errorKind.empty());
  // The schedule must not place anything on the dead processor.
  std::istringstream is(result->scheduleText);
  const DataSchedule schedule = loadSchedule(is);
  for (DataId d = 0; d < schedule.numData(); ++d) {
    for (WindowId w = 0; w < schedule.numWindows(); ++w) {
      EXPECT_NE(schedule.center(d, w), 5);
    }
  }
}

TEST(JobDigest, FaultSpecsAreContentFields) {
  const JobRequest base = makeRequest();
  JobRequest faulted = makeRequest();
  faulted.faults = {"proc:5"};
  EXPECT_NE(jobDigest(faulted), jobDigest(base));
  // Splitting one spec across two must not alias with a differently-split
  // request (the digest length-prefixes each spec).
  JobRequest joined = makeRequest();
  joined.faults = {"proc:5link:0-1"};
  JobRequest split = makeRequest();
  split.faults = {"proc:5", "link:0-1"};
  EXPECT_NE(jobDigest(joined), jobDigest(split));

  // No cache aliasing: the healthy result must not answer the faulted
  // request.
  SchedulingService service;
  ASSERT_NE(service.result(service.submit(base).id), nullptr);
  const SubmitOutcome second = service.submit(faulted);
  ASSERT_TRUE(second.accepted);
  EXPECT_FALSE(second.cached);
}

TEST(SchedulingService, UnreachableFaultsFailWithKindAndNoRetry) {
  // makeTrace references every processor of the 4x4 grid; killing row 1
  // partitions it, so some datum is referenced from both sides of the cut.
  JobRequest request = makeRequest();
  request.faults = {"row:1"};
  SchedulingService service;
  const SubmitOutcome outcome = service.submit(request);
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(service.result(outcome.id), nullptr);
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, "unreachable");
  EXPECT_EQ(status->attempts, 1);  // deterministic failures are not retried
  EXPECT_FALSE(status->error.empty());
}

TEST(SchedulingService, TransientWorkerFailureIsRetriedOnce) {
  std::atomic<int> attemptsSeen{0};
  SchedulingService::Config config;
  config.onJobAttempt = [&](int attempt) {
    ++attemptsSeen;
    if (attempt == 0) throw std::runtime_error("injected transient fault");
  };
  SchedulingService service(config);
  const SubmitOutcome outcome = service.submit(makeRequest());
  ASSERT_TRUE(outcome.accepted);
  const auto result = service.result(outcome.id);
  ASSERT_NE(result, nullptr);  // the retry succeeded
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->errorKind.empty());
  EXPECT_EQ(status->attempts, 2);
  EXPECT_EQ(attemptsSeen.load(), 2);
}

TEST(SchedulingService, SecondTransientFailureIsFinal) {
  SchedulingService::Config config;
  config.onJobAttempt = [](int) {
    throw std::runtime_error("worker keeps crashing");
  };
  SchedulingService service(config);
  const SubmitOutcome outcome = service.submit(makeRequest());
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(service.result(outcome.id), nullptr);
  const auto status = service.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_EQ(status->errorKind, "internal");
  EXPECT_EQ(status->attempts, 2);  // first run + exactly one retry
  EXPECT_NE(status->error.find("worker keeps crashing"), std::string::npos);
  EXPECT_EQ(service.stats().failed, 1);
}

TEST(SchedulingService, UnknownIdsAreDistinguishable) {
  SchedulingService service;
  EXPECT_FALSE(service.status(1).has_value());
  EXPECT_EQ(service.result(1, /*wait=*/true), nullptr);
}

TEST(SchedulingService, DrainFinishesEverythingAndThenRejects) {
  SchedulingService::Config config;
  config.concurrency = 2;
  SchedulingService service(config);
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    const SubmitOutcome outcome = service.submit(makeRequest(4, 5 + i));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queueDepth, 0u);
  EXPECT_EQ(stats.running, 0u);
  for (const JobId id : ids) {
    EXPECT_EQ(service.status(id)->state, JobState::kDone) << "id " << id;
  }
  const SubmitOutcome late = service.submit(makeRequest());
  EXPECT_FALSE(late.accepted);
  EXPECT_NE(late.reason.find("draining"), std::string::npos) << late.reason;
  service.drain();  // idempotent
}

TEST(SchedulingService, CacheEvictsOldestEntryPastTheBound) {
  SchedulingService::Config config;
  config.maxCacheEntries = 1;
  SchedulingService service(config);
  const JobRequest a = makeRequest(4, 5);
  const JobRequest b = makeRequest(4, 6);
  ASSERT_NE(service.result(service.submit(a).id), nullptr);
  ASSERT_NE(service.result(service.submit(b).id), nullptr);  // evicts a
  EXPECT_EQ(service.stats().cacheEntries, 1u);
  const SubmitOutcome aAgain = service.submit(a);
  EXPECT_FALSE(aAgain.cached);  // a was evicted, so it re-runs...
  ASSERT_NE(service.result(aAgain.id), nullptr);
  EXPECT_EQ(service.stats().cacheEntries, 1u);
  EXPECT_TRUE(service.submit(a).cached);    // ...and holds the single slot
  EXPECT_FALSE(service.submit(b).cached);   // ...which in turn evicted b
}

TEST(SchedulingService, DisabledCacheNeverServesCachedResults) {
  SchedulingService::Config config;
  config.cacheEnabled = false;
  SchedulingService service(config);
  ASSERT_NE(service.result(service.submit(makeRequest()).id), nullptr);
  const SubmitOutcome second = service.submit(makeRequest());
  ASSERT_TRUE(second.accepted);
  EXPECT_FALSE(second.cached);
  const auto result = service.result(second.id);
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->cacheHit);
  EXPECT_EQ(service.stats().cacheHits, 0);
  EXPECT_EQ(service.stats().cacheEntries, 0u);
}

TEST(SchedulingService, HundredsOfConcurrentSubmissionsAllGetAnAnswer) {
  // The e2e acceptance bar: >= 100 concurrent submissions of mixed
  // kernels, every one either rejected with a reason or driven to a
  // terminal state — nothing dropped without a reply.
  SchedulingService::Config config;
  config.concurrency = 4;
  config.maxQueueDepth = 16;  // small enough that backpressure triggers
  SchedulingService service(config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 15;
  const Method methods[] = {Method::kGomcds, Method::kScds, Method::kLomcds,
                            Method::kRowWise};
  std::vector<std::vector<SubmitOutcome>> outcomes(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobRequest request =
            makeRequest(3 + (t + i) % 3, 4 + i % 5, methods[(t + i) % 4]);
        request.priority = i % 3;
        outcomes[static_cast<std::size_t>(t)].push_back(
            service.submit(request));
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  int accepted = 0, rejected = 0;
  for (const auto& perThread : outcomes) {
    ASSERT_EQ(perThread.size(), static_cast<std::size_t>(kPerThread));
    for (const SubmitOutcome& outcome : perThread) {
      if (outcome.accepted) {
        ++accepted;
        (void)service.result(outcome.id);  // wait for terminal state
        const auto status = service.status(outcome.id);
        ASSERT_TRUE(status.has_value());
        EXPECT_TRUE(isTerminal(status->state));
        EXPECT_NE(status->state, JobState::kCancelled);
        EXPECT_NE(status->state, JobState::kExpired);
      } else {
        ++rejected;
        EXPECT_FALSE(outcome.reason.empty());
      }
    }
  }
  EXPECT_EQ(accepted + rejected, kThreads * kPerThread);
  EXPECT_GE(accepted, 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed + stats.failed, accepted);
  EXPECT_EQ(stats.failed, 0);
  service.drain();
}

TEST(SchedulingService, CacheHitPromotesEntryToMostRecentlyUsed) {
  // True-LRU pin: a hit must save an entry from eviction. Under the old
  // FIFO order, `a` would be the next victim regardless of the hit.
  SchedulingService::Config config;
  config.maxCacheEntries = 2;
  SchedulingService service(config);
  const JobRequest a = makeRequest(4, 5);
  const JobRequest b = makeRequest(4, 6);
  const JobRequest c = makeRequest(4, 7);
  ASSERT_NE(service.result(service.submit(a).id), nullptr);
  ASSERT_NE(service.result(service.submit(b).id), nullptr);  // order [a, b]
  EXPECT_TRUE(service.submit(a).cached);  // hit promotes a -> [b, a]
  ASSERT_NE(service.result(service.submit(c).id), nullptr);  // evicts b
  EXPECT_EQ(service.stats().cacheEntries, 2u);
  EXPECT_TRUE(service.submit(a).cached);   // the hit saved a
  EXPECT_TRUE(service.submit(c).cached);
  EXPECT_FALSE(service.submit(b).cached);  // b paid for a's survival
}

TEST(SchedulingService, RepeatedCacheHitsNeverDuplicateRecencyEntries) {
  // If hits appended duplicate recency entries, the first eviction after
  // five hits on `a` would pop a stale duplicate of `a` and drop it from
  // the cache even though it is the most recently used key.
  SchedulingService::Config config;
  config.maxCacheEntries = 2;
  SchedulingService service(config);
  const JobRequest a = makeRequest(4, 5);
  const JobRequest b = makeRequest(4, 6);
  ASSERT_NE(service.result(service.submit(a).id), nullptr);
  ASSERT_NE(service.result(service.submit(b).id), nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(service.submit(a).cached);
    EXPECT_EQ(service.stats().cacheEntries, 2u);  // never grows past bound
  }
  const JobRequest c = makeRequest(4, 7);
  ASSERT_NE(service.result(service.submit(c).id), nullptr);  // evicts b only
  EXPECT_EQ(service.stats().cacheEntries, 2u);
  EXPECT_TRUE(service.submit(a).cached);
  EXPECT_TRUE(service.submit(c).cached);
  EXPECT_FALSE(service.submit(b).cached);
}

TEST(SchedulingService, ConcurrentIdenticalSubmitsCoalesceToOneRun) {
  // K identical submits while the first is still in flight: exactly one
  // pipeline run, every waiter fanned the same result object.
  std::atomic<int> runs{0};
  SchedulingService::Config config;
  config.concurrency = 1;
  config.onJobAttempt = [&](int) { ++runs; };
  SchedulingService service(config);
#ifndef PIMSCHED_NO_OBS
  const std::int64_t coalescedBefore =
      obs::Registry::instance().counterValue("serve.jobs.coalesced");
#endif

  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  ASSERT_TRUE(blocker.accepted);
  const SubmitOutcome leader = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  EXPECT_FALSE(leader.cached);
  constexpr int kFollowers = 3;
  std::vector<JobId> followers;
  for (int i = 0; i < kFollowers; ++i) {
    const SubmitOutcome out = service.submit(makeRequest());
    ASSERT_TRUE(out.accepted);
    EXPECT_FALSE(out.cached);  // attached to the in-flight leader instead
    EXPECT_EQ(service.status(out.id)->state, JobState::kQueued);
    followers.push_back(out.id);
  }
  // Followers never entered the queue: only blocker (running) + leader.
  EXPECT_EQ(service.stats().queueDepth, 1u);
  gate.release();

  const auto leaderResult = service.result(leader.id);
  ASSERT_NE(leaderResult, nullptr);
  for (const JobId id : followers) {
    const auto result = service.result(id);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result.get(), leaderResult.get());  // the same object, shared
    EXPECT_EQ(service.status(id)->state, JobState::kDone);
  }
  EXPECT_EQ(runs.load(), 2);  // blocker + leader; followers never ran
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, kFollowers);
  EXPECT_EQ(stats.completed, 2 + kFollowers);
#ifndef PIMSCHED_NO_OBS
  EXPECT_EQ(obs::Registry::instance().counterValue("serve.jobs.coalesced"),
            coalescedBefore + kFollowers);
#endif
}

TEST(SchedulingService, IdenticalSubmitStormRunsThePipelineOnce) {
  // Races submit against completion from real threads: every submit either
  // leads, coalesces, or hits the cache — the pipeline runs exactly once.
  std::atomic<int> runs{0};
  SchedulingService::Config config;
  config.onJobAttempt = [&](int) { ++runs; };
  SchedulingService service(config);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<Cost> totals(kThreads, -1);
  std::vector<std::thread> storm;
  storm.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const SubmitOutcome out = service.submit(makeRequest());
      ASSERT_TRUE(out.accepted);
      const auto result = service.result(out.id);
      ASSERT_NE(result, nullptr);
      totals[static_cast<std::size_t>(t)] = result->eval.aggregate.total();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& s : storm) s.join();

  EXPECT_EQ(runs.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(totals[t], totals[0]);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kThreads);
  // All K submits are accounted for: 1 leader + coalesced + late cache hits.
  EXPECT_EQ(1 + stats.coalesced + stats.cacheHits, kThreads);
}

TEST(SchedulingService, CancelledLeaderPromotesAFollower) {
  // Cancelling a queued leader must not strand its followers: the first
  // follower is promoted to a queued job and still produces the result.
  SchedulingService::Config config;
  config.concurrency = 1;
  config.cacheEnabled = false;
  SchedulingService service(config);

  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  ASSERT_TRUE(blocker.accepted);
  const SubmitOutcome leader = service.submit(makeRequest());
  const SubmitOutcome follower = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  ASSERT_TRUE(follower.accepted);

  EXPECT_TRUE(service.cancel(leader.id));
  EXPECT_EQ(service.status(leader.id)->state, JobState::kCancelled);
  EXPECT_EQ(service.status(follower.id)->state, JobState::kQueued);
  gate.release();

  EXPECT_EQ(service.result(leader.id), nullptr);
  const auto result = service.result(follower.id);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(service.status(follower.id)->state, JobState::kDone);
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(SchedulingService, CancelDetachesAFollowerWithoutKillingTheLeader) {
  SchedulingService::Config config;
  config.concurrency = 1;
  config.cacheEnabled = false;
  SchedulingService service(config);

  PoolGate gate;
  const SubmitOutcome blocker = service.submit(makeRequest(4, 8));
  ASSERT_TRUE(blocker.accepted);
  const SubmitOutcome leader = service.submit(makeRequest());
  const SubmitOutcome follower = service.submit(makeRequest());
  ASSERT_TRUE(leader.accepted);
  ASSERT_TRUE(follower.accepted);

  EXPECT_TRUE(service.cancel(follower.id));
  EXPECT_EQ(service.status(follower.id)->state, JobState::kCancelled);
  EXPECT_EQ(service.status(leader.id)->state, JobState::kQueued);
  gate.release();

  EXPECT_EQ(service.result(follower.id), nullptr);
  ASSERT_NE(service.result(leader.id), nullptr);
  EXPECT_EQ(service.status(leader.id)->state, JobState::kDone);
}

}  // namespace
}  // namespace pimsched::serve
