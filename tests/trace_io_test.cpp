#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "kernels/benchmarks.hpp"
#include "pim/grid.hpp"
#include "trace/perturb.hpp"

namespace pimsched {
namespace {

ReferenceTrace sample() {
  DataSpace ds;
  ds.addArray("A", 2, 2);
  ds.addArray("B", 1, 3);
  ReferenceTrace t(ds);
  t.add(0, 3, 0, 2);
  t.add(1, 1, 5, 1);
  t.add(0, 0, 2, 7);
  t.finalize();
  return t;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const ReferenceTrace original = sample();
  std::stringstream ss;
  saveTrace(original, ss);
  const ReferenceTrace loaded = loadTrace(ss);

  EXPECT_EQ(loaded.numData(), original.numData());
  EXPECT_EQ(loaded.numSteps(), original.numSteps());
  EXPECT_EQ(loaded.totalWeight(), original.totalWeight());
  ASSERT_EQ(loaded.accesses().size(), original.accesses().size());
  for (std::size_t i = 0; i < loaded.accesses().size(); ++i) {
    EXPECT_EQ(loaded.accesses()[i], original.accesses()[i]);
  }
  ASSERT_EQ(loaded.dataSpace().numArrays(), 2);
  EXPECT_EQ(loaded.dataSpace().arrays()[1].name, "B");
  EXPECT_EQ(loaded.dataSpace().arrays()[1].cols, 3);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "pimtrace v1\n"
      "# a comment\n"
      "array A 2 2\n"
      "\n"
      "access 0 1 2 3\n");
  const ReferenceTrace t = loadTrace(ss);
  EXPECT_EQ(t.accesses().size(), 1u);
  EXPECT_EQ(t.accesses()[0].weight, 3);
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("array A 2 2\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRecord) {
  std::stringstream ss("pimtrace v1\nbogus 1 2 3\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedAccess) {
  std::stringstream ss("pimtrace v1\narray A 2 2\naccess 0 1\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsArrayAfterAccess) {
  std::stringstream ss(
      "pimtrace v1\narray A 2 2\naccess 0 0 0 1\narray B 2 2\n");
  EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIo, EmptyTraceRoundTrip) {
  DataSpace ds;
  ds.addArray("A", 1, 1);
  ReferenceTrace t(ds);
  t.finalize();
  std::stringstream ss;
  saveTrace(t, ss);
  const ReferenceTrace loaded = loadTrace(ss);
  EXPECT_EQ(loaded.numSteps(), 0);
  EXPECT_EQ(loaded.numData(), 1);
}

TEST(TraceIo, FileRoundTrip) {
  const ReferenceTrace original = sample();
  const std::string path = ::testing::TempDir() + "/pimsched_trace_test.txt";
  saveTraceFile(original, path);
  const ReferenceTrace loaded = loadTraceFile(path);
  EXPECT_EQ(loaded.totalWeight(), original.totalWeight());
}

// ---- Differential check against the istringstream reference parser ----

/// The original std::getline + istringstream loader, kept verbatim as the
/// reference for the accepted language and for every error text.
ReferenceTrace oracleLoad(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "pimtrace v1") {
    throw std::runtime_error("loadTrace: missing 'pimtrace v1' header");
  }

  DataSpace ds;
  std::optional<ReferenceTrace> trace;
  int lineNo = 1;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "array") {
      if (trace.has_value()) {
        throw std::runtime_error(
            "loadTrace: 'array' after first 'access' (line " +
            std::to_string(lineNo) + ")");
      }
      std::string name;
      int rows = 0, cols = 0;
      if (!(ls >> name >> rows >> cols)) {
        throw std::runtime_error("loadTrace: malformed array line " +
                                 std::to_string(lineNo));
      }
      ds.addArray(name, rows, cols);
    } else if (kind == "access") {
      if (!trace.has_value()) trace.emplace(ds);
      StepId step = 0;
      ProcId proc = 0;
      DataId data = 0;
      Cost weight = 0;
      if (!(ls >> step >> proc >> data >> weight)) {
        throw std::runtime_error("loadTrace: malformed access line " +
                                 std::to_string(lineNo));
      }
      trace->add(step, proc, data, weight);
    } else {
      throw std::runtime_error("loadTrace: unknown record '" + kind +
                               "' at line " + std::to_string(lineNo));
    }
  }
  if (!trace.has_value()) trace.emplace(ds);
  trace->finalize();
  return std::move(*trace);
}

/// Everything observable about one load: the trace on success, the
/// exception type and full message on failure.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<DataSpace::ArrayInfo> arrays;
  std::vector<Access> accesses;
  StepId numSteps = 0;
  Cost totalWeight = 0;
};

template <typename Load>
Outcome outcomeOf(Load load) {
  Outcome out;
  try {
    const ReferenceTrace t = load();
    out.ok = true;
    out.arrays = t.dataSpace().arrays();
    out.accesses = t.accesses();
    out.numSteps = t.numSteps();
    out.totalWeight = t.totalWeight();
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

/// Input rendered with every byte outside printable ASCII escaped, so a
/// failing case prints unambiguously.
std::string escaped(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\' && c != '"') {
      out.push_back(c);
    } else {
      out += "\\x";
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
  return out + "\"";
}

/// Loads `text` with the single-pass loader and with the reference; true
/// when both agree on everything. Records a test failure otherwise.
bool sameAsOracle(const std::string& text) {
  const Outcome want = outcomeOf([&] {
    std::istringstream is(text);
    return oracleLoad(is);
  });
  const Outcome got =
      outcomeOf([&] { return loadTrace(std::string_view(text)); });
  bool same = got.ok == want.ok && got.error == want.error &&
              got.accesses == want.accesses &&
              got.numSteps == want.numSteps &&
              got.totalWeight == want.totalWeight &&
              got.arrays.size() == want.arrays.size();
  for (std::size_t i = 0; same && i < got.arrays.size(); ++i) {
    const DataSpace::ArrayInfo& g = got.arrays[i];
    const DataSpace::ArrayInfo& w = want.arrays[i];
    same = g.name == w.name && g.rows == w.rows && g.cols == w.cols &&
           g.baseId == w.baseId;
  }
  if (!same) {
    ADD_FAILURE() << "input " << escaped(text) << "\n  oracle: "
                  << (want.ok ? "ok" : want.error) << "\n  loader: "
                  << (got.ok ? "ok" : got.error);
  }
  return same;
}

/// One header plus a 2 x 2 array, then `body`.
std::string withArray(const std::string& body) {
  return "pimtrace v1\narray A 2 2\n" + body;
}

TEST(TraceIoDifferential, HeaderAndLineSplitting) {
  for (const std::string text :
       {"", "\n", "pimtrace v1", "pimtrace v1\n", "pimtrace v1\r\n",
        "pimtrace v1 \n", " pimtrace v1\n", "pimtrace v2\n",
        "pimtrace v1\n\n\n", "array A 2 2\n",
        // A missing final newline still ends the last record.
        "pimtrace v1\narray A 2 2\naccess 0 1 2 3",
        "pimtrace v1\narray A 2 2\naccess 0 1 2"}) {
    EXPECT_TRUE(sameAsOracle(text));
  }
}

TEST(TraceIoDifferential, SignsAndIntegerBounds) {
  for (const std::string field :
       {"+5", "+-5", "-+5", "--5", "++5", "-0", "+0", "-", "+", "0005",
        "0000000000000000000000000001", "2147483647", "2147483648",
        "-2147483648", "-2147483649", "99999999999999999999", "0x1", "1.5",
        "1e3", "5abc", "a5"}) {
    SCOPED_TRACE(field);
    EXPECT_TRUE(sameAsOracle(withArray("access " + field + " 0 0 1\n")));
    EXPECT_TRUE(sameAsOracle(withArray("access 0 " + field + " 0 1\n")));
    EXPECT_TRUE(sameAsOracle(withArray("access 0 0 " + field + " 1\n")));
    EXPECT_TRUE(sameAsOracle(withArray("access 0 0 0 " + field + "\n")));
    EXPECT_TRUE(sameAsOracle("pimtrace v1\narray A " + field + " 2\n"));
    EXPECT_TRUE(sameAsOracle("pimtrace v1\narray A 2 " + field + "\n"));
  }
  for (const std::string weight :
       {"9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "+9223372036854775807", "18446744073709551616"}) {
    SCOPED_TRACE(weight);
    EXPECT_TRUE(sameAsOracle(withArray("access 0 0 0 " + weight + "\n")));
  }
}

TEST(TraceIoDifferential, WhitespaceTrailingTokensAndComments) {
  for (const std::string body :
       {"access\t0\t1\t2\t3\n", "access 0 1 2 3\r\n",
        "\vaccess\f0 1 2 3\v\n", "access 0 1 2 3 trailing tokens\n",
        "access 0 1 2 3x\n", "access 1-2 3 1\n", "access 1+2 3 1\n",
        "access 0 0 0 1.5\n", " \n", "\t\n", "\r\n", "\v\f\n",
        "# a comment\naccess 0 1 2 3\n", " # not a comment\n",
        "#\n", "access1 2 3 4\n", "ACCESS 0 1 2 3\n",
        "access 0 1 2 3\naccess 0 1 2 4\n",  // duplicate: merged
        "access 1 0 0 1\naccess 0 0 0 1\n",  // unsorted
        "access 0 0 4 1\n", "access -1 0 0 1\n", "access 0 -1 0 1\n",
        "access 0 0 0 0\n", "array B 1 1\n", "array B\n", "array\n",
        "array B 1 1 extra\n", "array B 0 1\n", "array B 50000 50000\n",
        "access 0 0 0 1\narray B 1 1\n", "access 2147483646 0 0 1\n",
        "access 0 0 0 9223372036854775807\naccess 0 0 0 1\n"}) {
    SCOPED_TRACE(escaped(body));
    EXPECT_TRUE(sameAsOracle(withArray(body)));
  }
}

TEST(TraceIoDifferential, NulAndHighBytes) {
  using namespace std::string_literals;
  for (const std::string& body :
       {"access 0 0 0 1\0\n"s, "acc\0ess 0 0 0 1\n"s, "\0\n"s,
        "access 0\0 0 0 1\n"s, "array \0B 1 1\n"s, "\xff\n"s,
        "access 0 0 0 \xff" "1\n"s, "array \xc3\xa9 1 1\n"s}) {
    SCOPED_TRACE(escaped(body));
    EXPECT_TRUE(sameAsOracle(withArray(body)));
  }
}

TEST(TraceIoDifferential, StreamOverloadMatchesStringView) {
  const std::string text = withArray("access 1 0 3 2\naccess 0 1 2 3\n");
  std::istringstream is(text);
  const ReferenceTrace viaStream = loadTrace(is);
  const ReferenceTrace viaView = loadTrace(std::string_view(text));
  EXPECT_EQ(viaStream.accesses(), viaView.accesses());
  EXPECT_EQ(traceDigest(viaStream), traceDigest(viaView));
}

/// Applies 1-4 random byte edits biased toward the bytes the grammar cares
/// about: digits, signs, whitespace, comment marks, NUL and range limits.
std::string mutate(std::string text, std::mt19937_64& rng) {
  static constexpr std::string_view kAlphabet = "0123456789+- \t\n\v\f\r#x.";
  static const std::vector<std::string> kSplices = {
      "2147483648", "-2147483649", "9223372036854775808", "+-",
      std::string(1, '\0'), "\xff", "array B 2 2\n", "access 0 0 0 1\n",
      "\r\n", "0000000000"};
  const auto pick = [&] {
    if (rng() % 4 == 0) return static_cast<char>(rng() % 256);
    return kAlphabet[rng() % kAlphabet.size()];
  };
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng() % (text.size() + 1);
    switch (rng() % 5) {
      case 0:
        if (pos < text.size()) text[pos] = pick();
        break;
      case 1:
        text.insert(pos, 1, pick());
        break;
      case 2:
        text.erase(pos, 1 + rng() % 8);
        break;
      case 3:
        text.insert(pos, kSplices[rng() % kSplices.size()]);
        break;
      default:
        text.insert(pos, text.substr(pos, 1 + rng() % 16));
        break;
    }
  }
  return text;
}

TEST(TraceIoDifferential, SeededByteMutationsOfAKernelTrace) {
  const Grid grid(4, 4);
  const ReferenceTrace kernel = perturbTrace(
      makePaperBenchmark(PaperBenchmark::kMatSquare, grid, 4), grid, 0.25,
      7);
  std::ostringstream os;
  saveTrace(kernel, os);
  const std::string base = os.str();
  ASSERT_TRUE(sameAsOracle(base));

  constexpr int kIterations = 10000;
  std::mt19937_64 rng(20260417);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = mutate(base, rng);
    ASSERT_TRUE(sameAsOracle(text)) << "iteration " << i;
    std::istringstream is(text);
    accepted += outcomeOf([&] { return oracleLoad(is); }).ok ? 1 : 0;
  }
  // The loop must exercise both outcomes to say anything.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(loadTraceFile("/nonexistent/definitely/missing.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace pimsched
