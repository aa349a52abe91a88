#include "serve/stream.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet_service.hpp"
#include "serve/service.hpp"
#include "serve/sharded.hpp"

namespace pimsched::serve {
namespace {

/// One streaming window: the shared prefix plus a per-window tail step, so
/// consecutive windows of a session share everything but the suffix.
ReferenceTrace windowTrace(int n, int steps, int tailWeight) {
  ReferenceTrace trace(DataSpace::singleSquare(n));
  const int numData = n * n;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < numData; ++d) {
      const int weight =
          s + 1 == steps ? tailWeight + d % 3 : 1 + (d + s) % 3;
      trace.add(s, (d + s) % 16, d, weight);
    }
  }
  trace.finalize();
  return trace;
}

StreamRequest makeStreamRequest(const std::string& session,
                                int tailWeight = 1) {
  StreamRequest request;
  request.session = session;
  request.job.trace = windowTrace(4, 6, tailWeight);
  request.job.config.numWindows = 3;
  request.job.config.capacity = PipelineConfig::kUnlimited;
  request.job.method = Method::kGomcds;
  return request;
}

// ---------------------------------------------------------------------------
// Session basics: warm second window, identity with the one-shot path.
// ---------------------------------------------------------------------------

TEST(StreamSessionManagerTest, SecondWindowOfUnchangedTraceIsWarm) {
  StreamSessionManager manager;
  const StreamOutcome first = manager.submit(makeStreamRequest("s"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.window, 0);
  EXPECT_TRUE(first.reset);  // newly created session
  EXPECT_FALSE(first.incremental);

  const StreamOutcome second = manager.submit(makeStreamRequest("s"));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.window, 1);
  EXPECT_FALSE(second.reset);
  EXPECT_TRUE(second.incremental);
  EXPECT_GT(second.reusedLayers, 0);
  EXPECT_EQ(second.relaxedLayers, 0);
}

TEST(StreamSessionManagerTest, EveryWindowMatchesTheOneShotSubmitPath) {
  StreamSessionManager manager;
  SchedulingService oneShot;
  for (int tail = 1; tail <= 4; ++tail) {
    const StreamOutcome window =
        manager.submit(makeStreamRequest("s", tail));
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    StreamRequest fresh = makeStreamRequest("s", tail);
    const SubmitOutcome submitted = oneShot.submit(fresh.job);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);

    EXPECT_EQ(window.result->scheduleText, expected->scheduleText)
        << "tail " << tail;
    EXPECT_EQ(window.result->eval.aggregate.total(),
              expected->eval.aggregate.total());
    EXPECT_EQ(window.result->digest, expected->digest);
  }
}

TEST(StreamSessionManagerTest, FaultedWindowsMatchTheOneShotSubmitPath) {
  StreamSessionManager manager;
  SchedulingService oneShot;
  for (int tail = 1; tail <= 3; ++tail) {
    StreamRequest request = makeStreamRequest("faulted", tail);
    request.job.faults = {"proc:5", "link:2-3"};
    const StreamOutcome window = manager.submit(request);
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    const SubmitOutcome submitted = oneShot.submit(request.job);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(window.result->scheduleText, expected->scheduleText)
        << "tail " << tail;
  }
}

TEST(StreamSessionManagerTest, InvalidSessionNamesAreRejected) {
  StreamSessionManager manager;
  const std::vector<std::string> badNames = {"", "has space", "semi;colon",
                                             std::string(65, 'a')};
  for (const std::string& bad : badNames) {
    StreamRequest request = makeStreamRequest(bad);
    const StreamOutcome out = manager.submit(request);
    EXPECT_FALSE(out.ok) << "name '" << bad << "'";
    EXPECT_EQ(out.errorKind, "invalid");
  }
  EXPECT_EQ(manager.size(), 0u);
}

TEST(StreamSessionManagerTest, CloseDropsTheSession) {
  StreamSessionManager manager;
  ASSERT_TRUE(manager.submit(makeStreamRequest("s")).ok);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_TRUE(manager.close("s"));
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.close("s"));  // already gone
  // A new window after close starts a fresh session at window 0.
  const StreamOutcome reopened = manager.submit(makeStreamRequest("s"));
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.window, 0);
  EXPECT_TRUE(reopened.reset);
}

// ---------------------------------------------------------------------------
// Eviction and compatibility resets.
// ---------------------------------------------------------------------------

TEST(StreamSessionManagerTest, LruEvictionDropsTheColdestSession) {
  StreamSessionManager manager(/*maxSessions=*/2);
  ASSERT_TRUE(manager.submit(makeStreamRequest("a")).ok);
  ASSERT_TRUE(manager.submit(makeStreamRequest("b")).ok);
  ASSERT_TRUE(manager.submit(makeStreamRequest("a")).ok);  // touch a
  ASSERT_TRUE(manager.submit(makeStreamRequest("c")).ok);  // evicts b
  EXPECT_EQ(manager.size(), 2u);

  // a kept its state across the eviction of b; re-adding b afterwards
  // restarts it from scratch (and evicts the new LRU victim, c).
  const StreamOutcome a = manager.submit(makeStreamRequest("a"));
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.window, 2);
  EXPECT_FALSE(a.reset);
  const StreamOutcome b = manager.submit(makeStreamRequest("b"));
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.window, 0);
  EXPECT_TRUE(b.reset);
}

TEST(StreamSessionManagerTest, ConfigChangeResetsTheSessionInPlace) {
  StreamSessionManager manager;
  ASSERT_TRUE(manager.submit(makeStreamRequest("s")).ok);
  ASSERT_TRUE(manager.submit(makeStreamRequest("s")).ok);

  StreamRequest changed = makeStreamRequest("s");
  changed.job.config.numWindows = 5;  // different solve shape
  const StreamOutcome out = manager.submit(changed);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.reset);
  EXPECT_EQ(out.window, 0);
  EXPECT_FALSE(out.incremental);  // warm state was dropped

  // And the reset session matches a fresh one-shot solve of the new shape.
  SchedulingService oneShot;
  StreamRequest fresh = makeStreamRequest("s");
  fresh.job.config.numWindows = 5;
  const SubmitOutcome submitted = oneShot.submit(fresh.job);
  ASSERT_TRUE(submitted.accepted);
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(out.result, nullptr);
  EXPECT_EQ(out.result->scheduleText, expected->scheduleText);
}

TEST(StreamSessionManagerTest, InvalidateByTagDropsOnlyMatchingSessions) {
  StreamSessionManager manager;
  StreamPin pinA{"arrayA", {}};
  StreamPin pinB{"arrayB", {}};
  ASSERT_TRUE(manager.submit(makeStreamRequest("s1"), pinA).ok);
  ASSERT_TRUE(manager.submit(makeStreamRequest("s2"), pinA).ok);
  ASSERT_TRUE(manager.submit(makeStreamRequest("s3"), pinB).ok);
  EXPECT_EQ(manager.invalidateByTag("arrayA"), 2);
  EXPECT_EQ(manager.size(), 1u);
  const StreamOutcome s3 = manager.submit(makeStreamRequest("s3"), pinB);
  ASSERT_TRUE(s3.ok);
  EXPECT_EQ(s3.window, 1);  // untouched by the other tag's invalidation
}

// ---------------------------------------------------------------------------
// Service integration: default unsupported, scheduling, sharded, fleet.
// ---------------------------------------------------------------------------

TEST(StreamServiceTest, BaseJobServiceReportsStreamingUnsupported) {
  class Minimal final : public JobService {
   public:
    SubmitOutcome submit(JobRequest) override { return {}; }
    std::optional<JobStatus> status(JobId) const override { return {}; }
    std::shared_ptr<const JobResult> result(JobId, bool) override {
      return nullptr;
    }
    bool cancel(JobId) override { return false; }
    ServiceStats stats() const override { return {}; }
    void drain() override {}
  };
  Minimal service;
  const StreamOutcome out =
      service.submitStream(makeStreamRequest("s"));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.errorKind, "invalid");
  EXPECT_FALSE(service.closeStream("s"));
}

TEST(StreamServiceTest, SchedulingServiceStreamsAndEvicts) {
  SchedulingService::Config config;
  config.maxStreamSessions = 1;
  SchedulingService service(config);
  ASSERT_TRUE(service.submitStream(makeStreamRequest("a")).ok);
  ASSERT_TRUE(service.submitStream(makeStreamRequest("b")).ok);  // evicts a
  const StreamOutcome a = service.submitStream(makeStreamRequest("a"));
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.window, 0);
  EXPECT_TRUE(a.reset);
  EXPECT_TRUE(service.closeStream("a"));
}

TEST(StreamServiceTest, ShardedRoutingIsStickyPerSessionName) {
  ShardedService::Config config;
  config.shards = 4;
  ShardedService service(config);
  // The window counter advancing proves every submit reached the same
  // shard-local session even as the trace (and so the job digest) changes.
  for (int tail = 1; tail <= 6; ++tail) {
    const StreamOutcome out =
        service.submitStream(makeStreamRequest("sticky", tail));
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.window, tail - 1);
  }
  EXPECT_TRUE(service.closeStream("sticky"));
  EXPECT_FALSE(service.closeStream("sticky"));
}

TEST(StreamFleetTest, FleetStreamsMatchTheOneShotPath) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  config.policyFromEnv = false;
  fleet::FleetService fleet(std::move(config));
  SchedulingService oneShot;
  for (int tail = 1; tail <= 3; ++tail) {
    const StreamOutcome window =
        fleet.submitStream(makeStreamRequest("s", tail));
    ASSERT_TRUE(window.ok) << window.error;
    ASSERT_NE(window.result, nullptr);

    StreamRequest fresh = makeStreamRequest("s", tail);
    const SubmitOutcome submitted = oneShot.submit(fresh.job);
    ASSERT_TRUE(submitted.accepted);
    const auto expected = oneShot.result(submitted.id);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(window.result->scheduleText, expected->scheduleText);
  }
  EXPECT_TRUE(fleet.closeStream("s"));
}

TEST(StreamFleetTest, GridWithNoMatchingArrayIsRejected) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  config.policyFromEnv = false;
  fleet::FleetService fleet(std::move(config));
  StreamRequest request = makeStreamRequest("s");
  request.job.gridRows = 8;
  request.job.gridCols = 8;
  const StreamOutcome out = fleet.submitStream(request);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.errorKind, "invalid");
}

TEST(StreamFleetTest, DriftOnTheHostingArrayInvalidatesTheSession) {
  fleet::FleetService::Config config;
  config.arrays = fleet::parseFleetSpec("only=4x4");
  config.policyFromEnv = false;
  fleet::FleetService fleet(std::move(config));
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 1)).ok);
  ASSERT_TRUE(fleet.submitStream(makeStreamRequest("s", 2)).ok);

  const DriftOutcome drift = fleet.applyDrift("only", {"proc:5"}, false);
  ASSERT_TRUE(drift.ok) << drift.error;

  // The warm state died with the drift; the next window starts a fresh
  // session whose solve sees the array's NEW fault set, and matches the
  // one-shot path under those faults.
  const StreamOutcome after = fleet.submitStream(makeStreamRequest("s", 3));
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.window, 0);
  EXPECT_TRUE(after.reset);

  SchedulingService oneShot;
  StreamRequest fresh = makeStreamRequest("s", 3);
  fresh.job.faults = {"proc:5"};
  const SubmitOutcome submitted = oneShot.submit(fresh.job);
  ASSERT_TRUE(submitted.accepted);
  const auto expected = oneShot.result(submitted.id);
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(after.result, nullptr);
  EXPECT_EQ(after.result->scheduleText, expected->scheduleText);

  // Healing drifts again: the re-created session is invalidated too.
  ASSERT_TRUE(fleet.applyDrift("only", {}, true).ok);
  const StreamOutcome healed =
      fleet.submitStream(makeStreamRequest("s", 4));
  ASSERT_TRUE(healed.ok);
  EXPECT_EQ(healed.window, 0);
  EXPECT_TRUE(healed.reset);
}

// ---------------------------------------------------------------------------
// Compat digest unit coverage.
// ---------------------------------------------------------------------------

TEST(StreamCompatDigestTest, TraceContentDoesNotChangeIt) {
  const Digest base = streamCompatDigest(makeStreamRequest("s").job);
  EXPECT_EQ(streamCompatDigest(makeStreamRequest("s", 7).job), base);

  StreamRequest grid = makeStreamRequest("s");
  grid.job.gridRows = 2;
  grid.job.gridCols = 8;
  EXPECT_NE(streamCompatDigest(grid.job), base);

  StreamRequest method = makeStreamRequest("s");
  method.job.method = Method::kScds;
  EXPECT_NE(streamCompatDigest(method.job), base);

  StreamRequest faults = makeStreamRequest("s");
  faults.job.faults = {"proc:5"};
  EXPECT_NE(streamCompatDigest(faults.job), base);

  StreamRequest tenant = makeStreamRequest("s");
  tenant.job.tenant = "acme";
  EXPECT_NE(streamCompatDigest(tenant.job), base);

  StreamRequest windows = makeStreamRequest("s");
  windows.job.config.numWindows = 7;
  EXPECT_NE(streamCompatDigest(windows.job), base);
}

TEST(StreamCompatDigestTest, SessionNameValidation) {
  EXPECT_TRUE(validSessionName("a"));
  EXPECT_TRUE(validSessionName("user-7.stream_A"));
  EXPECT_TRUE(validSessionName(std::string(64, 'x')));
  EXPECT_FALSE(validSessionName(""));
  EXPECT_FALSE(validSessionName(std::string(65, 'x')));
  EXPECT_FALSE(validSessionName("no spaces"));
  EXPECT_FALSE(validSessionName("no/slash"));
}

}  // namespace
}  // namespace pimsched::serve
