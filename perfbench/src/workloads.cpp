#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "calibrate.hpp"
#include "client.hpp"
#include "core/gomcds.hpp"
#include "core/incremental.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "fault/distance_map.hpp"
#include "fault/fault_trace.hpp"
#include "jobs.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

using namespace pimsched;
using serve::Json;

/// Daemon (or pimsched_cli) launches per run; setup_s is their median.
constexpr int kSetupLaunches = 25;
/// serve-miss and serve-hot run 2 closed-loop connections: each keeps a
/// client or daemon thread busy per request in flight, and 2 leave half of
/// a 4-core shared host for the daemon's other threads and for neighbours,
/// whose load made 4-connection runs spread widely. stream-churn runs 1
/// session: its client and the daemon take turns, so it needs about one
/// core.
constexpr int kClients = 2;
constexpr int kStreamClients = 1;
/// serve-hot: every connection joins an identical-job burst after this many
/// of its own requests.
constexpr int kBurstEvery = 200;
/// Inputs replayed layer by layer in the traced run.
constexpr std::size_t kReplayJobs = 40;
constexpr int kReplayWindows = 24;

double msOf(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---- replies --------------------------------------------------------------

/// One request as the client saw it.
struct Reply {
  std::int64_t input = -1;  ///< index of the job / window in the inputs
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  double latencyMs = 0.0;
  bool ok = false;
  std::string error;
  bool cached = false;
  std::int64_t total = 0;
  std::string digest;
  std::string scheduleDigest;
  std::int64_t waitNs = 0;
  std::int64_t runNs = 0;
  std::int64_t window = -1;
  bool incremental = false;
  std::int64_t reusedLayers = 0;
  std::int64_t relaxedLayers = 0;
};

std::int64_t intOr(const Json& j, const char* key, std::int64_t fallback) {
  const Json* v = j.find(key);
  return v != nullptr && v->isNumber() ? v->asInt64() : fallback;
}

bool boolOr(const Json& j, const char* key, bool fallback) {
  const Json* v = j.find(key);
  return v != nullptr && v->isBool() ? v->asBool() : fallback;
}

std::string stringOr(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->isString() ? v->asString() : std::string();
}

/// Sends one request and decodes the reply. Transport failures, error
/// replies and jobs that did not reach state "done" come back !ok.
Reply exchange(Connection& conn, const std::string& line, std::int64_t input) {
  Reply r;
  r.input = input;
  std::string raw;
  r.startNs = nowNs();
  try {
    raw = conn.roundTrip(line);
  } catch (const std::exception& e) {
    r.error = std::string("transport: ") + e.what();
  }
  r.endNs = nowNs();
  r.latencyMs = msOf(r.endNs - r.startNs);
  if (!r.error.empty()) return r;
  try {
    const Json reply = Json::parse(raw);
    if (!boolOr(reply, "ok", false)) {
      r.error = "error reply: " + stringOr(reply, "error");
      return r;
    }
    const std::string state = stringOr(reply, "state");
    if (!state.empty() && state != "done") {
      r.error = "job ended " + state + ": " + stringOr(reply, "error_detail");
      return r;
    }
    r.cached = boolOr(reply, "cached", false);
    r.total = intOr(reply, "total", 0);
    r.digest = stringOr(reply, "digest");
    r.scheduleDigest = textDigest(stringOr(reply, "schedule"));
    r.waitNs = intOr(reply, "wait_ns", 0);
    r.runNs = intOr(reply, "run_ns", 0);
    r.window = intOr(reply, "window", -1);
    r.incremental = boolOr(reply, "incremental", false);
    r.reusedLayers = intOr(reply, "reused_layers", 0);
    r.relaxedLayers = intOr(reply, "relaxed_layers", 0);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = std::string("bad reply: ") + e.what();
  }
  return r;
}

/// Compares a reply with the in-process answer; returns the mismatch.
std::string mismatch(const Reply& r, const Expected& want, bool checkDigest) {
  if (r.total != want.total) {
    return "total " + std::to_string(r.total) + " != " +
           std::to_string(want.total);
  }
  if (checkDigest && r.digest != want.jobDigest) return "job digest differs";
  if (r.scheduleDigest != want.scheduleDigest) return "schedule differs";
  return {};
}

struct ServiceCounters {
  std::int64_t accepted = 0, rejected = 0, cacheHits = 0, coalesced = 0;
};

ServiceCounters operator-(const ServiceCounters& a, const ServiceCounters& b) {
  return {a.accepted - b.accepted, a.rejected - b.rejected,
          a.cacheHits - b.cacheHits, a.coalesced - b.coalesced};
}

ServiceCounters readStats(Connection& conn) {
  const Json s = Json::parse(conn.roundTrip("{\"verb\":\"stats\"}"));
  if (!boolOr(s, "ok", false)) throw std::runtime_error("stats verb failed");
  return {intOr(s, "accepted", 0), intOr(s, "rejected", 0),
          intOr(s, "cache_hits", 0), intOr(s, "coalesced", 0)};
}

/// The daemon keeps a record of every job it accepted (with its trace) and
/// a result-cache entry for every distinct one, so its memory grows with
/// the requests served. Its peak is read when a fixed number of replies
/// has arrived, so a faster server is not charged for serving more.
class RssProbe {
 public:
  RssProbe(const Daemon& daemon, int afterReplies)
      : daemon_(&daemon), after_(afterReplies) {}

  /// Called by the clients once per reply.
  void onReply() {
    if (++replies_ == after_) mb_ = daemon_->peakRssMb();
  }
  /// The reading, or the daemon's peak now when too few replies arrived.
  double peakMb() const {
    if (mb_.load() > 0.0) return mb_.load();
    std::cerr << "perfbench: fewer than " << after_
              << " replies; peak_rss_mb read at the end\n";
    return daemon_->peakRssMb();
  }

 private:
  const Daemon* daemon_;
  int after_;
  std::atomic<int> replies_{0};
  std::atomic<double> mb_{0.0};
};

// ---- set-up ---------------------------------------------------------------

/// Launches the daemon kSetupLaunches times, timing each launch to the
/// first ok reply of a fixed small job; keeps the last one running.
std::unique_ptr<Daemon> launchDaemon(const RunOptions& o, RunResult& res,
                                     double* setupS) {
  const std::string probe = submitLine(probeJob());
  std::vector<double> samples;
  std::unique_ptr<Daemon> kept;
  for (int k = 0; k < kSetupLaunches; ++k) {
    auto d = std::make_unique<Daemon>(
        o.servedBinary, o.workDir + "/d" + std::to_string(k) + ".sock",
        o.workDir + "/daemon.log");
    samples.push_back(d->awaitFirstOk(probe, 30.0));
    if (k + 1 < kSetupLaunches) {
      if (!d->stop()) res.fail("set-up daemon did not drain and exit 0");
    } else {
      kept = std::move(d);
    }
  }
  *setupS = median(samples);
  return kept;
}

/// Probes the host once and logs the probe. A host with fewer effective
/// cores than 0.9 times the run's `needed` clients or threads is flagged
/// `UNDERSIZED` on stderr; the run still measures, and the probe is
/// reported as host.* in the traced run.
HostProbe probeRunHost(const RunOptions& o, unsigned needed) {
  const HostProbe host = probeHost(o.nproc);
  const bool undersized = host.effectiveCores < 0.9 * needed;
  std::cerr << "perfbench: host effective_cores=" << host.effectiveCores
            << " single_core_steps_per_us=" << host.singleCoreMops
            << " needed=" << needed << (undersized ? " UNDERSIZED" : "")
            << "\n";
  return host;
}

// ---- in-process layer replay (traced run) ----------------------------------

const char* const kCounterNames[] = {
    "cost.center_cache.hit",        "cost.center_cache.miss",
    "cost.center_eval_calls",       "gomcds.flat.solves",
    "gomcds.dedup.classes",         "gomcds.dedup.data",
    "sched.gomcds.rounds",          "sched.gomcds.conflicts",
    "pool.contention.steal_fails",  "pool.contention.sleeps",
};

using Counters = std::map<std::string, std::int64_t>;

Counters readCounters() {
  Counters c;
  for (const char* name : kCounterNames) {
    c[name] = obs::Registry::instance().counterValue(name);
  }
  return c;
}

void addDelta(Counters& sum, const Counters& before) {
  const Counters after = readCounters();
  for (const auto& [name, v] : after) sum[name] += v - before.at(name);
}

/// What one replay pass accumulated besides its spans.
struct ReplayTotals {
  std::int64_t items = 0;
  std::int64_t loadedBytes = 0;
  Counters counters;
  std::int64_t wallNs = 0;
  // stream replay
  std::int64_t warmSolves = 0;
  std::int64_t coldFalls = 0;
  std::size_t retainedBytes = 0;
  // solve-large replay: threads=1 solve times, and summed solve ns per
  // capacity class
  std::vector<double> solveT1Ms;
  std::int64_t t1PaperNs = 0, tNPaperNs = 0, t1UnlimitedNs = 0,
               tNUnlimitedNs = 0;
  std::vector<std::string> problems;
};

/// The job path of the serving daemon, one public call per span:
/// request decode, trace load, digest, fault distances, refs build, solve,
/// fault verification, evaluation, reply encode.
void replayJob(const JobSpec& job, const std::string& line, std::int64_t id,
               SpanRecorder& rec, ReplayTotals& t) {
  ScopedSpan root(rec, "bench.job", id);
  const int p = root.index();
  Json request;
  {
    ScopedSpan s(rec, "serve.json_parse", id, p);
    request = Json::parse(line);
  }
  ReferenceTrace trace{DataSpace{}};
  {
    ScopedSpan s(rec, "trace.load", id, p);
    std::istringstream is(request.find("trace")->asString());
    trace = loadTrace(is);
  }
  t.loadedBytes +=
      static_cast<std::int64_t>(request.find("trace")->asString().size());
  serve::JobRequest req = toJobRequest(job);
  req.trace = std::move(trace);
  {
    ScopedSpan s(rec, "serve.digest", id, p);
    (void)serve::jobDigest(req);
  }
  const Grid grid(job.rows, job.cols);
  std::optional<FaultMap> faults;
  if (!job.faults.empty()) {
    faults.emplace(grid);
    for (const std::string& spec : job.faults) applyFaultSpec(*faults, spec);
    ScopedSpan s(rec, "fault.distance_map", id, p);
    const DistanceMap distances(grid, *faults);
    (void)distances;
  }
  std::optional<Experiment> exp;
  {
    ScopedSpan s(rec, "trace.refs_build", id, p);
    if (faults.has_value()) {
      exp.emplace(req.trace, grid, *faults, req.config);
    } else {
      exp.emplace(req.trace, grid, req.config);
    }
  }
  const Counters before = readCounters();
  std::optional<DataSchedule> schedule;
  {
    ScopedSpan s(rec, "core.solve", id, p);
    schedule.emplace(exp->schedule(job.method));
  }
  addDelta(t.counters, before);
  if (faults.has_value()) {
    ScopedSpan s(rec, "core.verify", id, p);
    if (!verifyScheduleFaults(*schedule, exp->refs(), exp->costModel()).ok()) {
      t.problems.push_back("replayed schedule violates its fault state");
    }
  }
  std::optional<EvalResult> eval;
  {
    ScopedSpan s(rec, "core.eval", id, p);
    eval.emplace(evaluateSchedule(*schedule, exp->refs(), exp->costModel(),
                                  req.config.threads));
  }
  {
    ScopedSpan s(rec, "serve.encode", id, p);
    std::ostringstream os;
    saveSchedule(*schedule, os);
    Json reply;
    reply.set("ok", true)
        .set("state", "done")
        .set("total", eval->aggregate.total())
        .set("schedule", std::move(os).str());
    (void)reply.dump();
  }
  ++t.items;
}

/// Replays the first kReplayJobs inputs; jobs[i] was sent as lines[i].
ReplayTotals replayJobs(const std::vector<const JobSpec*>& jobs,
                        const std::vector<std::string>& lines,
                        SpanRecorder& rec) {
  ReplayTotals t;
  const std::int64_t start = nowNs();
  for (std::size_t i = 0; i < jobs.size() && i < kReplayJobs; ++i) {
    replayJob(*jobs[i], lines[i], static_cast<std::int64_t>(i), rec, t);
  }
  t.wallNs = nowNs() - start;
  return t;
}

/// One streaming session replayed window by window through the warm solver
/// the daemon's session keeps. Each window is then checked against a cold
/// solve of the same revision; that check is not on the daemon's path, so
/// it runs outside every span and outside the replay's wall time.
ReplayTotals replayStream(std::uint64_t seed, SpanRecorder& rec) {
  ReplayTotals t;
  StreamGen gen(seedFor(seed, "stream-0"));
  IncrementalSolver solver;
  std::int64_t checkNs = 0;
  const std::int64_t start = nowNs();
  for (int w = 0; w < kReplayWindows; ++w) {
    const JobSpec job = gen.revision();
    const std::string line = streamLine(job, "replay");
    gen.advance();
    const Grid grid(job.rows, job.cols);
    const PipelineConfig cfg = configOf(job);
    std::optional<Experiment> exp;
    std::string text;
    {
      ScopedSpan root(rec, "bench.window", w);
      const int p = root.index();
      Json request;
      {
        ScopedSpan s(rec, "serve.json_parse", w, p);
        request = Json::parse(line);
      }
      ReferenceTrace trace{DataSpace{}};
      {
        ScopedSpan s(rec, "trace.load", w, p);
        std::istringstream is(request.find("trace")->asString());
        trace = loadTrace(is);
      }
      t.loadedBytes +=
          static_cast<std::int64_t>(request.find("trace")->asString().size());
      {
        ScopedSpan s(rec, "trace.refs_build", w, p);
        exp.emplace(trace, grid, cfg);
      }
      const Counters before = readCounters();
      std::optional<DataSchedule> warm;
      {
        ScopedSpan s(rec, "core.incremental_solve", w, p);
        warm.emplace(solver.solve(exp->refs(), exp->costModel(),
                                  SchedulerOptions{exp->capacity(), cfg.order}));
      }
      addDelta(t.counters, before);
      if (w > 0) {
        ++t.warmSolves;
        if (solver.lastStats().cold) ++t.coldFalls;
      }
      std::optional<EvalResult> eval;
      {
        ScopedSpan s(rec, "core.eval", w, p);
        eval.emplace(evaluateSchedule(*warm, exp->refs(), exp->costModel(), 1));
      }
      {
        ScopedSpan s(rec, "serve.encode", w, p);
        std::ostringstream os;
        saveSchedule(*warm, os);
        text = std::move(os).str();
        Json reply;
        reply.set("ok", true).set("total", eval->aggregate.total())
            .set("schedule", text);
        (void)reply.dump();
      }
    }
    const std::int64_t checkStart = nowNs();
    std::ostringstream coldText;
    saveSchedule(exp->schedule(Method::kGomcds), coldText);
    if (coldText.str() != text) {
      t.problems.push_back("replayed warm window " + std::to_string(w) +
                           " differs from its cold solve");
    }
    checkNs += nowNs() - checkStart;
    ++t.items;
  }
  t.retainedBytes = solver.retainedBytes();
  t.wallNs = nowNs() - start - checkNs;
  return t;
}

/// solve-large jobs solved at nproc threads, each beside a threads=1 solve
/// of the same job. The threads=1 solve is a reference for the speedups and
/// the output check, not part of the job's path: it is timed on its own and
/// left out of the spans.
ReplayTotals replayLarge(const std::vector<JobSpec>& jobs, SpanRecorder& rec) {
  ReplayTotals t;
  std::int64_t referenceNs = 0;
  const std::int64_t start = nowNs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const auto id = static_cast<std::int64_t>(i);
    const Grid grid(job.rows, job.cols);
    PipelineConfig cfg = configOf(job);
    std::optional<DataSchedule> par;
    std::int64_t parNs = 0;
    {
      ScopedSpan root(rec, "bench.job", id);
      const int p = root.index();
      std::optional<Experiment> exp;
      {
        ScopedSpan s(rec, "trace.refs_build", id, p);
        exp.emplace(job.trace, grid, cfg);
      }
      const Counters before = readCounters();
      const std::int64_t t0 = nowNs();
      {
        ScopedSpan s(rec, "core.solve", id, p);
        par.emplace(exp->schedule(Method::kGomcds));
      }
      parNs = nowNs() - t0;
      addDelta(t.counters, before);
      {
        ScopedSpan s(rec, "core.eval", id, p);
        (void)evaluateSchedule(*par, exp->refs(), exp->costModel(),
                               cfg.threads);
      }
    }
    const std::int64_t referenceStart = nowNs();
    cfg.threads = 1;
    const Experiment seq(job.trace, grid, cfg);
    const std::int64_t t0 = nowNs();
    const DataSchedule one = seq.schedule(Method::kGomcds);
    const std::int64_t oneNs = nowNs() - t0;
    t.solveT1Ms.push_back(msOf(oneNs));
    const bool paper = job.capacity == PipelineConfig::kPaperCapacity;
    (paper ? t.t1PaperNs : t.t1UnlimitedNs) += oneNs;
    (paper ? t.tNPaperNs : t.tNUnlimitedNs) += parNs;
    std::ostringstream a, b;
    saveSchedule(*par, a);
    saveSchedule(one, b);
    if (a.str() != b.str()) {
      t.problems.push_back(job.label + ": threads=" +
                           std::to_string(job.threads) +
                           " schedule differs from threads=1");
    }
    referenceNs += nowNs() - referenceStart;
    ++t.items;
  }
  t.wallNs = nowNs() - start - referenceNs;
  return t;
}

// ---- metric assembly -------------------------------------------------------

double medianMs(const SpanRecorder& rec, const std::string& name) {
  return median(rec.durationsMs(name));
}

double sumOf(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric. A layer the workload does not exercise reads 0.
struct LayerInputs {
  const std::vector<Reply>* replies = nullptr;  ///< daemon replies, if any
  ServiceCounters statsDelta;
  const SpanRecorder* replay = nullptr;
  const ReplayTotals* totals = nullptr;
  double untracedReplayMs = 0.0;
  HostProbe host;
  std::size_t latencySamples = 0;
  double errorRate = 0.0;
};

std::vector<Metric> layerMetrics(const LayerInputs& in) {
  std::vector<Metric> m;
  const SpanRecorder& rec = *in.replay;
  const ReplayTotals& t = *in.totals;
  const double items = std::max<double>(1.0, static_cast<double>(t.items));

  std::vector<double> wait, run, transport;
  double windows = 0, warm = 0, reused = 0, relaxed = 0;
  if (in.replies != nullptr) {
    for (const Reply& r : *in.replies) {
      if (!r.ok) continue;
      if (r.window >= 0) {
        ++windows;
        if (r.incremental) ++warm;
        reused += static_cast<double>(r.reusedLayers);
        relaxed += static_cast<double>(r.relaxedLayers);
        continue;
      }
      // A cache hit carries the original run's stamps; it waited for
      // nothing and ran nothing.
      const std::int64_t w = r.cached ? 0 : r.waitNs;
      const std::int64_t x = r.cached ? 0 : r.runNs;
      wait.push_back(msOf(w));
      run.push_back(msOf(x));
      transport.push_back(std::max(0.0, r.latencyMs - msOf(w + x)));
    }
  }
  m.emplace_back("serve.json_parse_ms", medianMs(rec, "serve.json_parse"),
                 "ms");
  m.emplace_back("serve.digest_ms", medianMs(rec, "serve.digest"), "ms");
  m.emplace_back("serve.queue_wait_ms.p50",
                 percentile(wait, 50).value_or(0), "ms");
  m.emplace_back("serve.queue_wait_ms.p99",
                 percentile(wait, 99).value_or(0), "ms");
  m.emplace_back("serve.run_ms.p50", percentile(run, 50).value_or(0), "ms");
  m.emplace_back("serve.transport_ms.p50",
                 percentile(transport, 50).value_or(0), "ms");
  m.emplace_back("serve.encode_ms", medianMs(rec, "serve.encode"), "ms");
  const auto accepted = static_cast<double>(in.statsDelta.accepted);
  m.emplace_back("serve.cache_hit_ratio",
                 ratio(static_cast<double>(in.statsDelta.cacheHits), accepted),
                 "ratio");
  m.emplace_back("serve.coalesced_ratio",
                 ratio(static_cast<double>(in.statsDelta.coalesced), accepted),
                 "ratio");
  m.emplace_back("serve.rejected",
                 static_cast<double>(in.statsDelta.rejected), "count");
  m.emplace_back("serve.stream_warm_ratio", ratio(warm, windows), "ratio");

  const std::vector<double> loads = rec.durationsMs("trace.load");
  m.emplace_back("trace.load_ms", median(loads), "ms");
  m.emplace_back("trace.load_mb_per_s",
                 ratio(static_cast<double>(t.loadedBytes) / (1 << 20),
                       sumOf(loads) / 1e3),
                 "MB/s");
  m.emplace_back("trace.refs_build_ms", medianMs(rec, "trace.refs_build"),
                 "ms");
  m.emplace_back("fault.distance_map_ms",
                 medianMs(rec, "fault.distance_map"), "ms");

  auto counter = [&](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  m.emplace_back("cost.center_cache_hit_ratio",
                 ratio(counter("cost.center_cache.hit"),
                       counter("cost.center_cache.hit") +
                           counter("cost.center_cache.miss")),
                 "ratio");
  m.emplace_back("cost.center_eval_calls",
                 counter("cost.center_eval_calls") / items, "count");
  m.emplace_back("graph.flat_solves", counter("gomcds.flat.solves") / items,
                 "count");
  // gomcds.dedup.data counts the data folded into another's class.
  m.emplace_back("graph.dedup_class_ratio",
                 ratio(counter("gomcds.dedup.classes"),
                       counter("gomcds.dedup.classes") +
                           counter("gomcds.dedup.data")),
                 "ratio");
  m.emplace_back("graph.relaxed_layers", ratio(relaxed, windows), "count");
  m.emplace_back("graph.reused_layers", ratio(reused, windows), "count");

  // The solve on the workload's path: cold, or warm on stream-churn.
  std::vector<double> solves = rec.durationsMs("core.solve");
  for (const double ms : rec.durationsMs("core.incremental_solve")) {
    solves.push_back(ms);
  }
  m.emplace_back("core.solve_ms", median(solves), "ms");
  m.emplace_back("core.solve_ms.t1", median(t.solveT1Ms), "ms");
  m.emplace_back("core.parallel_speedup.paper_cap",
                 ratio(static_cast<double>(t.t1PaperNs),
                       static_cast<double>(t.tNPaperNs)),
                 "x");
  m.emplace_back("core.parallel_speedup.unlimited",
                 ratio(static_cast<double>(t.t1UnlimitedNs),
                       static_cast<double>(t.tNUnlimitedNs)),
                 "x");
  m.emplace_back("core.plan_rounds", counter("sched.gomcds.rounds") / items,
                 "count");
  m.emplace_back("core.plan_conflicts",
                 counter("sched.gomcds.conflicts") / items, "count");
  m.emplace_back("core.incremental_solve_ms",
                 medianMs(rec, "core.incremental_solve"), "ms");
  m.emplace_back("core.cold_fall_ratio",
                 ratio(static_cast<double>(t.coldFalls),
                       static_cast<double>(t.warmSolves)),
                 "ratio");
  m.emplace_back("core.retained_mb",
                 static_cast<double>(t.retainedBytes) / (1 << 20), "MB");
  m.emplace_back("core.eval_ms", medianMs(rec, "core.eval"), "ms");
  m.emplace_back("core.verify_ms", medianMs(rec, "core.verify"), "ms");
  m.emplace_back("util.pool_steal_fails",
                 counter("pool.contention.steal_fails") / items, "count");
  m.emplace_back("util.pool_sleeps",
                 counter("pool.contention.sleeps") / items, "count");

  const std::map<std::string, double> self = rec.selfMsByLayer();
  for (const char* layer : {"bench", "serve", "trace", "fault", "core"}) {
    const auto it = self.find(layer);
    m.emplace_back(std::string(layer) + ".self_ms",
                   it == self.end() ? 0.0 : it->second / items, "ms");
  }
  const double tracedMs = msOf(t.wallNs);
  m.emplace_back(
      "bench.trace_overhead_pct",
      100.0 * ratio(tracedMs - in.untracedReplayMs, in.untracedReplayMs), "%");
  m.emplace_back("bench.error_rate", in.errorRate, "ratio");
  m.emplace_back("bench.latency_samples",
                 static_cast<double>(in.latencySamples), "count");
  m.emplace_back("host.effective_cores", in.host.effectiveCores, "count");
  m.emplace_back("host.single_core_steps_per_us", in.host.singleCoreMops,
                 "1/us");
  return m;
}

// ---- shared end-to-end reporting --------------------------------------------

/// Failed requests count as missing every latency limit: they enter the
/// latency sample as +infinity.
std::vector<double> latencies(const std::vector<Reply>& replies,
                              const std::vector<char>& bad) {
  std::vector<double> v;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    v.push_back(bad[i] != 0 ? std::numeric_limits<double>::infinity()
                            : replies[i].latencyMs);
  }
  return v;
}

/// Completed jobs per second as the median over the run's whole
/// five-second slices. Each job counts in a slice by the share of its
/// duration that falls there, so slow jobs do not quantize the rate. The
/// median keeps a few seconds of lost host capacity from moving the figure;
/// slices this long hold enough of serve-miss's mix of light and heavy jobs
/// that their rates agree.
double sliceMedianRate(const std::vector<Reply>& replies,
                       const std::vector<char>& bad, std::int64_t startNs,
                       std::int64_t endNs) {
  constexpr std::int64_t kSliceNs = 5'000'000'000;
  const std::int64_t slices = std::max<std::int64_t>(1, (endNs - startNs) / kSliceNs);
  std::vector<double> done(static_cast<std::size_t>(slices), 0.0);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    if (bad[i] != 0) continue;
    const double dur = static_cast<double>(std::max<std::int64_t>(1, r.endNs - r.startNs));
    for (std::int64_t k = (r.startNs - startNs) / kSliceNs;
         k < slices && startNs + k * kSliceNs < r.endNs; ++k) {
      if (k < 0) continue;
      const std::int64_t lo = std::max(r.startNs, startNs + k * kSliceNs);
      const std::int64_t hi = std::min(r.endNs, startNs + (k + 1) * kSliceNs);
      if (hi > lo) done[static_cast<std::size_t>(k)] += static_cast<double>(hi - lo) / dur;
    }
  }
  return median(done) * 1e9 / static_cast<double>(kSliceNs);
}

/// Latency percentile `p` as the median over the run's one-second slices
/// of each slice's p-th percentile (requests bucketed by start time), for
/// the same reason as sliceMedianRate. When a slice holds too few requests
/// to support p, the p-th percentile of all samples; nullopt when even
/// they do not support it.
std::optional<double> sliceMedianLatency(const std::vector<Reply>& replies,
                                         const std::vector<double>& lat,
                                         std::int64_t startNs,
                                         std::int64_t endNs, double p) {
  constexpr std::int64_t kSliceNs = 1'000'000'000;
  const std::int64_t slices =
      std::max<std::int64_t>(1, (endNs - startNs) / kSliceNs);
  std::vector<std::vector<double>> bySlice(static_cast<std::size_t>(slices));
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const std::int64_t k = (replies[i].startNs - startNs) / kSliceNs;
    if (k >= 0 && k < slices) {
      bySlice[static_cast<std::size_t>(k)].push_back(lat[i]);
    }
  }
  std::vector<double> perSlice;
  for (const std::vector<double>& v : bySlice) {
    const std::optional<double> x = percentile(v, p);
    if (!x.has_value()) return percentile(lat, p);
    perSlice.push_back(*x);
  }
  return median(perSlice);
}

/// What a workload measured, for the shared metrics and the traced replay.
struct Measured {
  std::vector<Reply> replies;
  std::vector<char> bad;  ///< failed or mismatched
  std::int64_t startNs = 0;  ///< the measured interval
  std::int64_t endNs = 0;
  /// Set when the workload summarizes its own samples (solve-large);
  /// otherwise slice medians over [startNs, endNs) and all samples.
  std::optional<double> jobsPerS, p50, tail;
  double setupS = 0;
  double peakRssMb = 0;
  ServiceCounters statsDelta;
  HostProbe host;
  /// The percentile latency_tail_ms reports; fixed per workload.
  double tailPercentile = 99.0;
  bool fromDaemon = true;  ///< replies carry the daemon's wait/run stamps
};

/// p50 and the workload's tail percentile of the latency samples, each
/// taken per one-second slice when the slices hold enough requests. A run
/// with too few samples for either fails rather than report a percentile
/// its sample does not support.
void socketLatency(const Measured& run, const std::vector<double>& lat,
                   RunResult& res, double* p50, double* tail) {
  const std::optional<double> median =
      sliceMedianLatency(run.replies, lat, run.startNs, run.endNs, 50);
  const std::optional<double> high = sliceMedianLatency(
      run.replies, lat, run.startNs, run.endNs, run.tailPercentile);
  if (!median.has_value() || !high.has_value()) {
    std::ostringstream why;
    why << "only " << lat.size() << " latency samples: too few for p"
        << run.tailPercentile;
    res.fail(why.str());
  }
  *p50 = median.value_or(0);
  *tail = high.value_or(0);
}

void writeSpans(const RunOptions& o, const SpanRecorder& rec) {
  rec.writeChromeTrace(o.workDir + "/spans-" + o.workload + "-" +
                       std::to_string(o.seed) + ".json");
}

/// Shared tail of every workload: failure count, end-to-end metrics or,
/// in the traced run, the replay and the per-layer metrics.
void finishRun(const RunOptions& o, Measured& run,
               const std::function<ReplayTotals(SpanRecorder&)>& replay,
               RunResult& res) {
  res.attempted = static_cast<std::int64_t>(run.replies.size());
  for (const char b : run.bad) res.failed += b != 0 ? 1 : 0;
  if (res.failed > 0) {
    res.fail(std::to_string(res.failed) + " of " +
             std::to_string(res.attempted) + " requests failed or mismatched");
  }
  const std::vector<double> lat = latencies(run.replies, run.bad);
  double p50 = 0, tail = 0;
  if (run.p50.has_value()) {
    p50 = *run.p50;
    tail = run.tail.value_or(0);
  } else {
    socketLatency(run, lat, res, &p50, &tail);
  }
  std::vector<Metric> m;
  m.emplace_back("setup_s", run.setupS, "s");
  m.emplace_back("jobs_per_s",
                 run.jobsPerS.value_or(sliceMedianRate(
                     run.replies, run.bad, run.startNs, run.endNs)),
                 "1/s");
  m.emplace_back("latency_p50_ms", p50, "ms");
  m.emplace_back("latency_tail_ms", tail, "ms");
  m.emplace_back("peak_rss_mb", run.peakRssMb, "MB");
  if (!o.trace) {
    res.metrics = std::move(m);
    return;
  }
  SpanRecorder off(false);
  const ReplayTotals untraced = replay(off);
  SpanRecorder on(true);
  const ReplayTotals traced = replay(on);
  for (const std::string& p : traced.problems) res.fail(p);
  LayerInputs in;
  in.replies = run.fromDaemon ? &run.replies : nullptr;
  in.statsDelta = run.statsDelta;
  in.replay = &on;
  in.totals = &traced;
  in.untracedReplayMs = msOf(untraced.wallNs);
  in.host = run.host;
  in.latencySamples = lat.size();
  in.errorRate = ratio(static_cast<double>(res.failed),
                       static_cast<double>(res.attempted));
  res.metrics = layerMetrics(in);
  writeSpans(o, on);
}

/// Moves the clients' replies into run.replies and marks each one that
/// failed, or whose output `check` rejects (it returns why, or ""). Checks
/// run on `threads` threads; the first few problems are kept for stderr.
void checkReplies(std::vector<std::vector<Reply>>& perClient,
                  unsigned threads,
                  const std::function<std::string(const Reply&)>& check,
                  Measured& run, RunResult& res) {
  for (auto& v : perClient) {
    for (Reply& r : v) run.replies.push_back(std::move(r));
  }
  run.bad.assign(run.replies.size(), 0);
  std::mutex problemsMutex;
  parallelFor(run.replies.size(), threads, [&](std::size_t i) {
    const Reply& r = run.replies[i];
    const std::string why = r.ok ? check(r) : r.error;
    if (why.empty()) return;
    run.bad[i] = 1;
    std::lock_guard<std::mutex> lock(problemsMutex);
    if (res.problems.size() < 8) {
      res.problems.push_back("input " + std::to_string(r.input) + ": " + why);
    }
  });
}

// ---- serve-miss -------------------------------------------------------------

/// Generated jobs per second of run time, about twice what 2 connections
/// are served. A server fast enough to drain the pool early is measured up
/// to the moment it ran dry.
constexpr int kMissJobsPerSecond = 150;

RunResult runServeMiss(const RunOptions& o) {
  RunResult res;
  const std::int64_t genStart = nowNs();
  const int poolSize = static_cast<int>(kMissJobsPerSecond * o.seconds) + 64;
  std::vector<JobSpec> jobs = missJobs(o.seed, poolSize, o.nproc);
  std::vector<std::string> lines(jobs.size());
  // Only the request lines stay in memory (a few hundred MB for a 10 s
  // run); the checks parse each job's trace back out of its line.
  parallelFor(jobs.size(), o.nproc, [&](std::size_t i) {
    lines[i] = submitLine(jobs[i]);
    jobs[i].trace = ReferenceTrace{DataSpace{}};
  });
  std::cerr << "perfbench: generated " << jobs.size() << " jobs in "
            << msOf(nowNs() - genStart) / 1e3 << " s\n";

  Measured run;
  // About 70 jobs a second: p95 needs 200 samples, so a host half as fast
  // still supports it, where p99 (1000 needed) would fail the run.
  run.tailPercentile = 95.0;
  run.host = probeRunHost(o, kClients);
  std::unique_ptr<Daemon> daemon = launchDaemon(o, res, &run.setupS);
  Connection control(daemon->socket());
  const ServiceCounters before = readStats(control);

  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> dryNs{0};
  RssProbe rss(*daemon, 500);
  std::vector<std::vector<Reply>> perClient(kClients);
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Connection conn(daemon->socket());
      while (nowNs() < deadline) {
        const std::size_t i = next++;
        if (i >= lines.size()) {
          std::int64_t none = 0;
          dryNs.compare_exchange_strong(none, nowNs());
          break;
        }
        perClient[static_cast<std::size_t>(c)].push_back(
            exchange(conn, lines[i], static_cast<std::int64_t>(i)));
        rss.onReply();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  run.startNs = start;
  run.endNs = deadline;
  if (dryNs > 0) {
    run.endNs = dryNs;
    std::cerr << "perfbench: the job pool ran dry after "
              << msOf(dryNs - start) / 1e3 << " s\n";
  }
  const ServiceCounters after = readStats(control);
  run.statsDelta = after - before;
  run.peakRssMb = rss.peakMb();
  if (!daemon->stop()) res.fail("daemon did not drain and exit 0");

  checkReplies(
      perClient, o.nproc,
      [&](const Reply& r) {
        const auto i = static_cast<std::size_t>(r.input);
        JobSpec job = jobs[i];
        job.trace = traceOf(lines[i]);
        const std::string why = mismatch(r, solveCold(job), true);
        return why.empty() ? why : job.label + ": " + why;
      },
      run, res);
  // Honesty gate: every job must have been scheduled, none answered from
  // the result cache or folded into another.
  if (run.statsDelta.cacheHits != 0 || run.statsDelta.coalesced != 0) {
    res.fail("serve-miss is invalid: " +
             std::to_string(run.statsDelta.cacheHits) + " cache hits and " +
             std::to_string(run.statsDelta.coalesced) + " coalesced jobs");
  }
  finishRun(
      o, run,
      [&](SpanRecorder& rec) {
        std::vector<const JobSpec*> inputs;
        for (const JobSpec& j : jobs) inputs.push_back(&j);
        return replayJobs(inputs, lines, rec);
      },
      res);
  return res;
}

// ---- serve-hot --------------------------------------------------------------

constexpr int kHotBursts = 512;

RunResult runServeHot(const RunOptions& o) {
  RunResult res;
  const HotInputs in = hotInputs(o.seed, kHotBursts);
  // Inputs: catalogue first, then the burst pool.
  std::vector<const JobSpec*> inputs;
  for (const JobSpec& j : in.catalogue) inputs.push_back(&j);
  for (const JobSpec& j : in.bursts) inputs.push_back(&j);
  std::vector<std::string> lines(inputs.size());
  std::vector<Expected> expected(inputs.size());
  parallelFor(inputs.size(), o.nproc, [&](std::size_t i) {
    lines[i] = submitLine(*inputs[i]);
    expected[i] = solveCold(*inputs[i]);
  });

  Measured run;
  run.host = probeRunHost(o, kClients);
  std::unique_ptr<Daemon> daemon = launchDaemon(o, res, &run.setupS);
  Connection control(daemon->socket());
  // Warm the cache with the catalogue: users of a hot cache do not pay
  // its fill on every request.
  for (std::size_t i = 0; i < in.catalogue.size(); ++i) {
    const Reply r = exchange(control, lines[i], static_cast<std::int64_t>(i));
    if (!r.ok) res.fail("cache warm-up failed: " + r.error);
  }
  const ServiceCounters before = readStats(control);

  std::vector<std::vector<Reply>> perClient(kClients);
  std::barrier burst(kClients);
  RssProbe rss(*daemon, 10000);
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Connection conn(daemon->socket());
      Rng rng(seedFor(o.seed, "serve-hot-client-" + std::to_string(c)));
      std::size_t bursts = 0;
      for (int i = 1; nowNs() < deadline; ++i) {
        std::size_t input = 0;
        if (i % kBurstEvery == 0) {
          burst.arrive_and_wait();
          input = in.catalogue.size() + bursts++ % in.bursts.size();
        } else {
          const double u = rng.unit();
          input = static_cast<std::size_t>(
              std::lower_bound(in.cdf.begin(), in.cdf.end(), u) -
              in.cdf.begin());
          input = std::min(input, in.catalogue.size() - 1);
        }
        perClient[static_cast<std::size_t>(c)].push_back(
            exchange(conn, lines[input], static_cast<std::int64_t>(input)));
        rss.onReply();
      }
      burst.arrive_and_drop();
    });
  }
  for (std::thread& t : clients) t.join();
  run.startNs = start;
  run.endNs = deadline;
  const ServiceCounters after = readStats(control);
  run.statsDelta = after - before;
  run.peakRssMb = rss.peakMb();
  if (!daemon->stop()) res.fail("daemon did not drain and exit 0");

  checkReplies(
      perClient, o.nproc,
      [&](const Reply& r) {
        const auto i = static_cast<std::size_t>(r.input);
        const std::string why = mismatch(r, expected[i], true);
        return why.empty() ? why : inputs[i]->label + ": " + why;
      },
      run, res);
  if (run.statsDelta.cacheHits <= 0) {
    res.fail("serve-hot recorded no cache hits");
  }
  // The catalogue and the first bursts.
  finishRun(
      o, run,
      [&](SpanRecorder& rec) { return replayJobs(inputs, lines, rec); },
      res);
  return res;
}

// ---- stream-churn -------------------------------------------------------------

RunResult runStreamChurn(const RunOptions& o) {
  RunResult res;
  Measured run;
  // One session gives about 18 windows a second: enough samples for p90
  // (100 needed). p95 spread too widely between runs on a shared host.
  run.tailPercentile = 90.0;
  run.host = probeRunHost(o, kStreamClients);
  std::unique_ptr<Daemon> daemon = launchDaemon(o, res, &run.setupS);
  Connection control(daemon->socket());
  const ServiceCounters before = readStats(control);

  std::vector<std::vector<Reply>> perClient(kStreamClients);
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kStreamClients; ++c) {
    clients.emplace_back([&, c] {
      Connection conn(daemon->socket());
      // The client builds each revision between windows, as a streaming
      // producer would; building it ahead on another thread made runs
      // settle into one of two speeds.
      const std::string session = "pb-" + std::to_string(c);
      StreamGen gen(seedFor(o.seed, "stream-" + std::to_string(c)));
      for (std::int64_t w = 0; nowNs() < deadline; ++w) {
        const std::string line = streamLine(gen.revision(), session);
        gen.advance();
        // Input ids interleave the sessions: w * kStreamClients + c.
        Reply r = exchange(conn, line, w * kStreamClients + c);
        if (r.ok && r.window != w) {
          r.ok = false;
          r.error = "reply for window " + std::to_string(r.window) +
                    ", expected " + std::to_string(w);
        }
        perClient[static_cast<std::size_t>(c)].push_back(std::move(r));
      }
      conn.roundTrip("{\"verb\":\"stream-close\",\"session\":\"" +
                     session + "\"}");
    });
  }
  for (std::thread& t : clients) t.join();
  run.startNs = start;
  run.endNs = deadline;
  const ServiceCounters after = readStats(control);
  run.statsDelta = after - before;
  run.peakRssMb = daemon->peakRssMb();
  if (!daemon->stop()) res.fail("daemon did not drain and exit 0");

  // Every window against a cold GOMCDS solve of the same revision,
  // regenerated from the session's seed.
  checkReplies(
      perClient, o.nproc,
      [&](const Reply& r) {
        StreamGen gen(seedFor(o.seed, "stream-" + std::to_string(
                                          r.input % kStreamClients)));
        for (std::int64_t w = 0; w < r.window; ++w) gen.advance();
        const std::string why = mismatch(r, solveCold(gen.revision()), false);
        return why.empty() ? why : "window " + std::to_string(r.window) + ": " + why;
      },
      run, res);
  finishRun(
      o, run, [&](SpanRecorder& rec) { return replayStream(o.seed, rec); },
      res);
  return res;
}

// ---- solve-large ----------------------------------------------------------------

struct LargeSample {
  std::size_t input = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t total = 0;
  std::string scheduleDigest;
};

RunResult runSolveLarge(const RunOptions& o) {
  RunResult res;
  const std::vector<JobSpec> jobs = largeJobs(o.seed, o.nproc);
  const HostProbe host = probeRunHost(o, o.nproc);

  // Set-up: pimsched_cli --threads 0 launched on a trace file, timed to
  // the exit of its first solve, and its total checked against the same
  // solve in-process.
  const std::string probeFile = o.workDir + "/probe.pimtrace";
  const Grid probeGrid(32, 32);
  const ReferenceTrace probeTrace =
      makeKernelTrace(Kernel::kMatSquare, probeGrid, 16);
  saveTraceFile(probeTrace, probeFile);
  const Experiment probeExp(probeTrace, probeGrid, PipelineConfig{});
  const std::int64_t probeTotal =
      evaluateSchedule(probeExp.schedule(Method::kGomcds), probeExp.refs(),
                       probeExp.costModel(), 1)
          .aggregate.total();
  std::vector<double> setup;
  for (int k = 0; k < kSetupLaunches; ++k) {
    const std::string log = o.workDir + "/cli-" + std::to_string(k) + ".log";
    const std::int64_t t0 = nowNs();
    const pid_t pid = spawnProcess(
        {o.cliBinary, probeFile, "--grid", "32x32", "--threads", "0",
         "--windows", "8", "--csv"},
        log);
    const bool exited = reapProcess(pid, 60.0);
    setup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    // The --csv summary: a header line, then ...,total.
    std::ifstream is(log);
    std::string header, row;
    std::getline(is, header);
    std::getline(is, row);
    const std::string total = row.substr(row.rfind(',') + 1);
    if (!exited || total != std::to_string(probeTotal)) {
      res.fail("pimsched_cli set-up solve failed or gave total '" + total +
               "', expected " + std::to_string(probeTotal));
    }
  }

  // Closed loop: one caller, each job at threads = nproc. A pass runs every
  // job once in a seeded order; passes start until the time is up and the
  // last one finishes, so every run measures the same mix: the jobs' solve
  // times differ fortyfold, and a partial pass would shift the percentiles.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seedFor(o.seed, "solve-large-order"));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.below(static_cast<int>(i)))]);
  }
  std::vector<LargeSample> samples;
  const std::int64_t start = nowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::size_t k = 0; k % order.size() != 0 || nowNs() < deadline; ++k) {
    const JobSpec& job = jobs[order[k % order.size()]];
    const Grid grid(job.rows, job.cols);
    const std::int64_t t0 = nowNs();
    const Experiment exp(job.trace, grid, configOf(job));
    const DataSchedule schedule = exp.schedule(Method::kGomcds);
    const EvalResult eval =
        evaluateSchedule(schedule, exp.refs(), exp.costModel(), job.threads);
    const std::int64_t t1 = nowNs();
    std::ostringstream os;
    saveSchedule(schedule, os);
    samples.push_back({order[k % order.size()], t0, t1,
                       eval.aggregate.total(), textDigest(os.str())});
  }
  const double rss = peakRssMbOf(0);

  // threads = nproc must equal threads = 1 on every job run.
  std::vector<std::optional<Expected>> want(jobs.size());
  std::vector<char> used(jobs.size(), 0);
  for (const LargeSample& s : samples) used[s.input] = 1;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (used[i] == 0) continue;
    JobSpec one = jobs[i];
    one.threads = 1;
    want[i] = solveCold(one);
  }
  std::vector<Reply> replies;
  std::vector<char> bad;
  for (const LargeSample& s : samples) {
    Reply r;
    r.input = static_cast<std::int64_t>(s.input);
    r.startNs = s.startNs;
    r.endNs = s.endNs;
    r.latencyMs = msOf(s.endNs - s.startNs);
    r.ok = true;
    r.total = s.total;
    r.scheduleDigest = s.scheduleDigest;
    const std::string why = mismatch(r, *want[s.input], false);
    bad.push_back(why.empty() ? 0 : 1);
    if (!why.empty() && res.problems.size() < 8) {
      res.problems.push_back(jobs[s.input].label + ": threads=" +
                             std::to_string(o.nproc) + " vs threads=1: " + why);
    }
    replies.push_back(std::move(r));
  }
  Measured run;
  run.replies = std::move(replies);
  run.bad = std::move(bad);
  run.startNs = start;
  run.endNs = deadline;
  run.setupS = median(setup);
  // The figures describe a typical pass: each job's median time over the
  // passes, so a pass slowed by lost host capacity moves nothing. The jobs'
  // times differ fortyfold, so a slowed job in the raw samples would jump
  // past other jobs and move a percentile from one job to another.
  // Throughput of one caller is then jobs per pass over the pass time,
  // and latency p50 / p80 are taken over the twelve medians.
  std::vector<std::vector<double>> perJob(jobs.size());
  for (const LargeSample& s : samples) {
    perJob[s.input].push_back(msOf(s.endNs - s.startNs));
  }
  std::vector<double> typical;
  for (const std::vector<double>& v : perJob) typical.push_back(median(v));
  double passMs = 0;
  for (const double ms : typical) passMs += ms;
  run.jobsPerS = static_cast<double>(jobs.size()) * 1e3 / passMs;
  run.tailPercentile = 80.0;
  run.p50 = quantile(typical, 50);
  run.tail = quantile(typical, run.tailPercentile);
  run.peakRssMb = rss;
  run.host = host;
  run.fromDaemon = false;
  finishRun(o, run, [&](SpanRecorder& rec) { return replayLarge(jobs, rec); },
            res);
  return res;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"serve-miss", "serve-hot",
                                                 "stream-churn", "solve-large"};
  return names;
}

RunResult runWorkload(const RunOptions& o) {
  std::filesystem::create_directories(o.workDir);
  if (o.workload == "serve-miss") return runServeMiss(o);
  if (o.workload == "serve-hot") return runServeHot(o);
  if (o.workload == "stream-churn") return runStreamChurn(o);
  if (o.workload == "solve-large") return runSolveLarge(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
