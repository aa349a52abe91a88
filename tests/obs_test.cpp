#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "core/gomcds.hpp"
#include "core/gomcds_detail.hpp"
#include "report/obs_report.hpp"
#include "test_util.hpp"

namespace pimsched {
namespace {

/// Minimal recursive-descent JSON syntax checker, enough to prove the
/// chrome-trace export round-trips through a parse.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Obs, EmptyTraceIsValidJson) {
  obs::Registry::instance().reset();
  std::stringstream ss;
  obs::Registry::instance().writeChromeTrace(ss);
  EXPECT_TRUE(JsonChecker(ss.str()).valid()) << ss.str();
}

TEST(Obs, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

#ifdef PIMSCHED_NO_OBS
#define PIMSCHED_OBS_TEST_GUARD() \
  GTEST_SKIP() << "instrumentation compiled out (PIMSCHED_NO_OBS)"
#else
#define PIMSCHED_OBS_TEST_GUARD() \
  do {                            \
  } while (0)
#endif

TEST(Obs, CountersAccumulate) {
  PIMSCHED_OBS_TEST_GUARD();
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  PIMSCHED_COUNTER_ADD("obs_test.counter", 2);
  PIMSCHED_COUNTER_ADD("obs_test.counter", 3);
  EXPECT_EQ(registry.counterValue("obs_test.counter"), 5);
  EXPECT_EQ(registry.counterValue("obs_test.never_touched"), 0);
}

TEST(Obs, TimersNest) {
  PIMSCHED_OBS_TEST_GUARD();
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  {
    PIMSCHED_SCOPED_TIMER("obs_test.outer");
    for (int i = 0; i < 3; ++i) {
      PIMSCHED_SCOPED_TIMER("obs_test.inner");
    }
  }
  obs::TimerSample outer, inner;
  for (const obs::TimerSample& t : registry.timerSamples()) {
    if (t.name == "obs_test.outer") outer = t;
    if (t.name == "obs_test.inner") inner = t;
  }
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(inner.count, 3);
  // The outer scope encloses every inner scope.
  EXPECT_GE(outer.totalNs, inner.totalNs);
  EXPECT_GE(inner.minNs, 0);
  EXPECT_GE(inner.maxNs, inner.minNs);
}

TEST(Obs, TraceJsonRoundTripsThroughAParse) {
  PIMSCHED_OBS_TEST_GUARD();
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.enableTracing(true);
  {
    PIMSCHED_SCOPED_TIMER("obs_test.scope \"quoted\"");
    registry.recordInstant("obs_test.instant", "{\"window\":1,\"volume\":7}");
  }
  registry.enableTracing(false);
  std::stringstream ss;
  registry.writeChromeTrace(ss);
  const std::string json = ss.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("obs_test.instant"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  registry.reset();
}

TEST(Obs, EventsAreDroppedWhileTracingDisabled) {
  PIMSCHED_OBS_TEST_GUARD();
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.recordInstant("obs_test.ghost", "");
  {
    PIMSCHED_SCOPED_TIMER("obs_test.untraced");
  }
  EXPECT_TRUE(registry.traceEvents().empty());
}

TEST(Obs, SummaryRendersRecordedMetrics) {
  PIMSCHED_OBS_TEST_GUARD();
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  PIMSCHED_COUNTER_ADD("obs_test.render", 42);
  std::stringstream ss;
  renderObsSummary(ss);
  EXPECT_NE(ss.str().find("obs_test.render"), std::string::npos);
  EXPECT_NE(ss.str().find("42"), std::string::npos);
  std::stringstream csv;
  writeObsCsv(csv);
  EXPECT_NE(csv.str().find("counter,obs_test.render,42"), std::string::npos);
  registry.reset();
}

TEST(Obs, ParallelGomcdsMergedMetricsEqualPerThreadSum) {
  PIMSCHED_OBS_TEST_GUARD();
  const Grid g(4, 4);
  const CostModel model(g);
  testutil::Rng rng(517);
  const ReferenceTrace t = testutil::randomTrace(rng, g, 6, 6, 24, 40);
  const WindowedRefs refs(t, WindowPartition::evenCount(t.numSteps(), 6), g);

  // Unlimited capacity is a static forbidden set: one serve table per
  // equivalence class, one serving-cost row per (class, window), however
  // the pool splits the per-class solves.
  const std::int64_t classes = static_cast<std::int64_t>(
      detail::computeDedupClasses(refs).rep.size());
  const std::int64_t rows = classes * refs.numWindows();

  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  (void)scheduleGomcds(refs, model, {}, GomcdsEngine::kChamfer, 4);
  EXPECT_EQ(registry.counterValue("sched.gomcds.data"), refs.numData());
  EXPECT_EQ(registry.counterValue("cost.center_eval_calls"), rows);
  EXPECT_EQ(registry.counterValue("solver.runs"), refs.numData());

  // And the totals match a sequential run of the same problem.
  registry.reset();
  (void)scheduleGomcds(refs, model);
  EXPECT_EQ(registry.counterValue("sched.gomcds.data"), refs.numData());
  EXPECT_EQ(registry.counterValue("cost.center_eval_calls"), rows);
  registry.reset();
}

}  // namespace
}  // namespace pimsched
