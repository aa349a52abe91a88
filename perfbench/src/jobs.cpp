#include "jobs.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/schedule_io.hpp"
#include "core/verify.hpp"
#include "fault/fault_trace.hpp"
#include "kernels/benchmarks.hpp"
#include "kernels/extra_kernels.hpp"
#include "serve/json.hpp"
#include "trace/perturb.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using namespace pimsched;
using serve::Json;

std::uint64_t seedFor(std::uint64_t seed, std::string_view tag) {
  DigestBuilder b;
  b.u64(seed);
  b.str(tag);
  return b.digest().lo;
}

std::string kernelName(Kernel k) {
  switch (k) {
    case Kernel::kLu: return "lu";
    case Kernel::kMatSquare: return "matsq";
    case Kernel::kLuCode: return "lu-code";
    case Kernel::kMatCode: return "mat-code";
    case Kernel::kCodeRev: return "code-rev";
    case Kernel::kCholesky: return "cholesky";
    case Kernel::kFloydWarshall: return "floyd";
    case Kernel::kJacobi: return "jacobi";
    case Kernel::kTranspose: return "transpose";
    case Kernel::kSpmv: return "spmv";
    case Kernel::kWavefront: return "wavefront";
    case Kernel::kBanded: return "banded";
  }
  return "?";
}

ReferenceTrace makeKernelTrace(Kernel k, const Grid& grid, int n) {
  switch (k) {
    case Kernel::kLu: return makePaperBenchmark(PaperBenchmark::kLu, grid, n);
    case Kernel::kMatSquare:
      return makePaperBenchmark(PaperBenchmark::kMatSquare, grid, n);
    case Kernel::kLuCode:
      return makePaperBenchmark(PaperBenchmark::kLuCode, grid, n);
    case Kernel::kMatCode:
      return makePaperBenchmark(PaperBenchmark::kMatCode, grid, n);
    case Kernel::kCodeRev:
      return makePaperBenchmark(PaperBenchmark::kCodeRev, grid, n);
    default:
      break;
  }
  TraceBuilder tb;
  const IterationMap map(grid, n, n, PartitionKind::kRowBlock);
  switch (k) {
    case Kernel::kCholesky: emitCholesky(tb, map, n); break;
    case Kernel::kFloydWarshall: emitFloydWarshall(tb, map, n); break;
    case Kernel::kJacobi: emitJacobi2D(tb, map, n, 4); break;
    case Kernel::kTranspose: emitTranspose(tb, map, n); break;
    case Kernel::kSpmv: emitSpmv(tb, map, n, 4); break;
    case Kernel::kWavefront: emitWavefront(tb, map, n, 4); break;
    default: emitBandedElimination(tb, map, n, 3); break;
  }
  return std::move(tb).build();
}

JobSpec makeJob(std::string label, ReferenceTrace trace, int rows, int cols,
                Method method, int windows, std::int64_t capacity,
                std::vector<std::string> faults) {
  if (!trace.finalized()) trace.finalize();
  JobSpec job;
  job.label = std::move(label);
  job.trace = std::move(trace);
  job.rows = rows;
  job.cols = cols;
  job.method = method;
  job.windows = windows;
  job.capacity = capacity;
  job.faults = std::move(faults);
  return job;
}

PipelineConfig configOf(const JobSpec& job) {
  PipelineConfig cfg;
  cfg.numWindows = job.windows;
  cfg.capacity = job.capacity;
  cfg.threads = job.threads;
  return cfg;
}

serve::JobRequest toJobRequest(const JobSpec& job) {
  serve::JobRequest req;
  req.trace = job.trace;
  req.gridRows = job.rows;
  req.gridCols = job.cols;
  req.config = configOf(job);
  req.method = job.method;
  req.faults = job.faults;
  return req;
}

namespace {

/// The protocol's spelling of the methods these workloads use.
const char* wireName(Method m) {
  switch (m) {
    case Method::kLomcds: return "lomcds";
    case Method::kGroupedLomcds: return "grouped";
    case Method::kGroupedGomcds: return "groupedgomcds";
    default: return "gomcds";
  }
}

Json requestJson(const JobSpec& job, const char* verb) {
  std::ostringstream trace;
  saveTrace(job.trace, trace);
  Json r;
  r.set("verb", verb)
      .set("trace", std::move(trace).str())
      .set("grid", std::to_string(job.rows) + "x" + std::to_string(job.cols))
      .set("method", wireName(job.method))
      .set("windows", job.windows)
      .set("capacity", job.capacity == PipelineConfig::kUnlimited
                           ? Json("unlimited")
                           : Json("paper"))
      .set("threads", static_cast<std::int64_t>(job.threads))
      .set("schedule", true);
  if (!job.faults.empty()) {
    Json::Array specs;
    for (const std::string& f : job.faults) specs.emplace_back(f);
    r.set("faults", Json(std::move(specs)));
  }
  return r;
}

}  // namespace

std::string submitLine(const JobSpec& job) {
  Json r = requestJson(job, "submit");
  r.set("wait", true);
  return r.dump();
}

std::string streamLine(const JobSpec& job, const std::string& session) {
  Json r = requestJson(job, "submit-stream");
  r.set("session", session);
  return r.dump();
}

ReferenceTrace traceOf(const std::string& line) {
  std::istringstream is(Json::parse(line).find("trace")->asString());
  return loadTrace(is);
}

std::string textDigest(std::string_view text) {
  DigestBuilder b;
  b.bytes(text.data(), text.size());
  return b.digest().hex();
}

Expected solveCold(const JobSpec& job) {
  const Grid grid(job.rows, job.cols);
  std::optional<FaultMap> faults;
  if (!job.faults.empty()) {
    faults.emplace(grid);
    for (const std::string& spec : job.faults) applyFaultSpec(*faults, spec);
  }
  const PipelineConfig cfg = configOf(job);
  std::optional<Experiment> exp;
  if (faults.has_value()) {
    exp.emplace(job.trace, grid, *faults, cfg);
  } else {
    exp.emplace(job.trace, grid, cfg);
  }
  const DataSchedule schedule = exp->schedule(job.method);
  if (faults.has_value() &&
      !verifyScheduleFaults(schedule, exp->refs(), exp->costModel()).ok()) {
    throw std::runtime_error("in-process schedule violates the fault state");
  }
  const EvalResult eval =
      evaluateSchedule(schedule, exp->refs(), exp->costModel(), cfg.threads);
  std::ostringstream os;
  saveSchedule(schedule, os);
  Expected out;
  out.total = eval.aggregate.total();
  out.jobDigest = serve::jobDigest(toJobRequest(job)).hex();
  out.scheduleDigest = textDigest(os.str());
  return out;
}

namespace {

/// An interior processor of a side x side grid (never on the border, so a
/// few dead interior processors cannot disconnect the mesh).
int interiorProc(Rng& rng, int side) {
  const int r = 1 + rng.below(side - 2);
  const int c = 1 + rng.below(side - 2);
  return r * side + c;
}

std::vector<std::string> randomFaults(Rng& rng, int side) {
  std::vector<std::string> specs;
  const int dead = 1 + rng.below(2);
  for (int i = 0; i < dead; ++i) {
    specs.push_back("proc:" + std::to_string(interiorProc(rng, side)));
  }
  if (rng.below(2) == 0) {
    // A link between two interior processors on one row.
    const int r = 1 + rng.below(side - 2);
    const int c = 1 + rng.below(side - 3);
    const int a = r * side + c;
    specs.push_back("link:" + std::to_string(a) + "-" + std::to_string(a + 1));
  }
  return specs;
}

}  // namespace

JobSpec probeJob() {
  const Grid grid(4, 4);
  return makeJob("probe-matsq-4x4",
                 makePaperBenchmark(PaperBenchmark::kMatSquare, grid, 8), 4,
                 4, Method::kGomcds, 4, PipelineConfig::kPaperCapacity);
}

void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

std::vector<JobSpec> missJobs(std::uint64_t seed, int count,
                              unsigned threads) {
  static const Kernel kKernels[] = {
      Kernel::kLu,       Kernel::kMatSquare,     Kernel::kLuCode,
      Kernel::kMatCode,  Kernel::kCodeRev,       Kernel::kCholesky,
      Kernel::kFloydWarshall, Kernel::kJacobi,   Kernel::kTranspose,
      Kernel::kSpmv,     Kernel::kWavefront,     Kernel::kBanded};
  // {grid side, data-array edge}: working sets from 64 to 800 data, 30%
  // on 4x4, 30% on 8x8, 20% each on 12x12 and 16x16.
  static const std::pair<int, int> kSizes[] = {
      {4, 8},   {4, 12},  {4, 16},  {8, 12},  {8, 16},
      {8, 20},  {12, 12}, {12, 16}, {16, 16}, {16, 20}};
  static const int kWindows[] = {4, 8, 16};
  constexpr int kKernelCount = static_cast<int>(std::size(kKernels));
  constexpr int kDeck = kKernelCount * static_cast<int>(std::size(kSizes));

  // Base traces, one per deck cell.
  std::vector<ReferenceTrace> bases(kDeck, ReferenceTrace{DataSpace{}});
  parallelFor(kDeck, threads, [&](std::size_t cell) {
    const auto [side, n] = kSizes[cell / kKernelCount];
    bases[cell] = makeKernelTrace(kKernels[cell % kKernelCount],
                                  Grid(side, side), n);
  });

  // The mix is a fixed deck of kernel x size cells with fixed method,
  // window and fault shares, dealt in a seeded order; the seed changes the
  // order, the perturbation and where faults land, never the proportions,
  // so runs with different seeds measure the same kind of work. Each deck
  // has its own random stream, so decks are built in parallel.
  const int decks = (count + kDeck - 1) / kDeck;
  std::vector<JobSpec> jobs(static_cast<std::size_t>(decks * kDeck));
  parallelFor(static_cast<std::size_t>(decks), threads, [&](std::size_t d) {
    Rng rng(seedFor(seed, "serve-miss-deck-" + std::to_string(d)));
    std::vector<int> deck(kDeck);
    for (int i = 0; i < kDeck; ++i) deck[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1],
                deck[static_cast<std::size_t>(rng.below(static_cast<int>(i)))]);
    }
    for (int k = 0; k < kDeck; ++k) {
      const int cell = deck[static_cast<std::size_t>(k)];
      const Kernel kernel = kKernels[cell % kKernelCount];
      const auto [side, n] = kSizes[cell / kKernelCount];
      // Across the deck: 1 in 5 faulted; 70% GOMCDS, 15% LOMCDS, 15%
      // grouped. Faulted jobs use the fault-aware GOMCDS/LOMCDS only.
      const bool faulted = cell % 5 == 0;
      const int m = (cell * 7) % 20;
      Method method = m < 14 ? Method::kGomcds : Method::kLomcds;
      if (!faulted && m >= 17) {
        method = m < 19 ? Method::kGroupedLomcds : Method::kGroupedGomcds;
      }
      const Grid grid(side, side);
      jobs[d * kDeck + static_cast<std::size_t>(k)] = makeJob(
          kernelName(kernel) + "-" + std::to_string(side) + "x" +
              std::to_string(side) + "-n" + std::to_string(n),
          perturbTrace(bases[static_cast<std::size_t>(cell)], grid, 0.1,
                       rng.next()),
          side, side, method, kWindows[(cell / 3) % 3],
          PipelineConfig::kPaperCapacity,
          faulted ? randomFaults(rng, side) : std::vector<std::string>{});
    }
  });

  // Never repeat: drop any job whose digest an earlier one (or the set-up
  // probe) already has.
  std::vector<std::string> digests(jobs.size());
  parallelFor(jobs.size(), threads, [&](std::size_t i) {
    digests[i] = serve::jobDigest(toJobRequest(jobs[i])).hex();
  });
  std::set<std::string> seen{serve::jobDigest(toJobRequest(probeJob())).hex()};
  std::vector<JobSpec> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (seen.insert(digests[i]).second) out.push_back(std::move(jobs[i]));
  }
  return out;
}

HotInputs hotInputs(std::uint64_t seed, int burstCount) {
  static const Kernel kKernels[] = {Kernel::kLu, Kernel::kMatSquare,
                                    Kernel::kCodeRev, Kernel::kTranspose};
  Rng rng(seedFor(seed, "serve-hot"));
  // Input i always has the same kernel and size (base i % 8), so a Zipf
  // rank lands on the same kind of job under every seed; the seed picks
  // the perturbation.
  std::vector<ReferenceTrace> bases;
  for (int b = 0; b < 8; ++b) {
    const int side = b < 4 ? 4 : 8;
    bases.push_back(
        makeKernelTrace(kKernels[b % 4], Grid(side, side), side == 4 ? 8 : 12));
  }
  auto smallJob = [&](const std::string& tag, int i) {
    const int b = i % 8;
    const int side = b < 4 ? 4 : 8;
    return makeJob(tag + "-" + kernelName(kKernels[b % 4]) + "-" +
                       std::to_string(side) + "x" + std::to_string(side),
                   perturbTrace(bases[static_cast<std::size_t>(b)],
                                Grid(side, side), 0.1, rng.next()),
                   side, side, Method::kGomcds, 8,
                   PipelineConfig::kPaperCapacity);
  };
  HotInputs in;
  std::set<std::string> seen{serve::jobDigest(toJobRequest(probeJob())).hex()};
  constexpr int kCatalogue = 16;
  for (int i = 0; i < kCatalogue + burstCount;) {
    const bool forCatalogue = i < kCatalogue;
    JobSpec job = smallJob(forCatalogue ? "hot" : "burst", i);
    if (!seen.insert(serve::jobDigest(toJobRequest(job)).hex()).second) {
      continue;
    }
    (forCatalogue ? in.catalogue : in.bursts).push_back(std::move(job));
    ++i;
  }
  double sum = 0;
  for (int r = 0; r < kCatalogue; ++r) {
    sum += 1.0 / std::pow(r + 1, 1.1);
    in.cdf.push_back(sum);
  }
  for (double& c : in.cdf) c /= sum;
  return in;
}

std::vector<JobSpec> largeJobs(std::uint64_t seed, unsigned threads) {
  static const std::pair<Kernel, int> kKernels[] = {
      {Kernel::kMatSquare, 24}, {Kernel::kLu, 24}, {Kernel::kCodeRev, 24}};
  constexpr int kSide = 32;
  const Grid grid(kSide, kSide);
  Rng rng(seedFor(seed, "solve-large"));
  std::vector<JobSpec> jobs;
  for (const auto& [kernel, n] : kKernels) {
    const ReferenceTrace base = makeKernelTrace(kernel, grid, n);
    for (const int windows : {8, 32}) {
      for (const std::int64_t cap :
           {PipelineConfig::kPaperCapacity, PipelineConfig::kUnlimited}) {
        JobSpec job = makeJob(
            kernelName(kernel) + "-w" + std::to_string(windows) +
                (cap == PipelineConfig::kUnlimited ? "-unlimited" : "-paper"),
            perturbTrace(base, grid, 0.1, rng.next()), kSide, kSide,
            Method::kGomcds, windows, cap);
        job.threads = threads;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

StreamGen::StreamGen(std::uint64_t seed)
    : rng_(seed), numGroups_(kDataN * kDataN / kGroupSize) {
  rows_.resize(static_cast<std::size_t>(kWindows * numGroups_));
  for (Row& row : rows_) row = freshRow();
}

StreamGen::Row StreamGen::freshRow() {
  // Two or three referencing processors with mixed weights, like a block
  // read by a few compute tiles.
  Row row;
  const int refs = 2 + (rng_.below(4) == 0 ? 1 : 0);
  for (int i = 0; i < refs; ++i) {
    row.proc.push_back(rng_.below(kGrid * kGrid));
    row.weight.push_back(1 + rng_.below(7));
  }
  return row;
}

void StreamGen::advance() {
  std::vector<char> touched(static_cast<std::size_t>(numGroups_));
  for (char& t : touched) t = rng_.below(2) == 0 ? 1 : 0;
  for (int w = kWindows - kChurnWindows; w < kWindows; ++w) {
    for (int g = 0; g < numGroups_; ++g) {
      if (touched[static_cast<std::size_t>(g)] != 0) {
        rows_[static_cast<std::size_t>(w * numGroups_ + g)] = freshRow();
      }
    }
  }
}

JobSpec StreamGen::revision() const {
  ReferenceTrace t(DataSpace::singleSquare(kDataN));
  const int numData = kDataN * kDataN;
  for (int d = 0; d < numData; ++d) t.add(0, 0, d, 1);  // stable domain
  for (int w = 0; w < kWindows; ++w) {
    for (int g = 0; g < numGroups_; ++g) {
      const Row& row = rows_[static_cast<std::size_t>(w * numGroups_ + g)];
      for (int d = g * kGroupSize; d < (g + 1) * kGroupSize; ++d) {
        for (std::size_t i = 0; i < row.proc.size(); ++i) {
          t.add(w, row.proc[i], d, row.weight[i]);
        }
      }
    }
  }
  return makeJob("stream-32x32", std::move(t), kGrid, kGrid, Method::kGomcds,
                 kWindows, PipelineConfig::kUnlimited);
}

}  // namespace perfbench
