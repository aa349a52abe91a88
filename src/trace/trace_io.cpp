#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace pimsched {

namespace {

constexpr std::string_view kMagic = "pimtrace v1";
/// "access 0 0 0 1\n": the shortest line that can carry an access.
constexpr std::size_t kMinAccessLineBytes = 15;

/// The whitespace set of `std::istream >>` in the classic locale:
/// " \t\n\v\f\r".
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Cursor over one record line that reads fields the way `std::istream >>`
/// does in the classic locale: a token is a maximal run of non-whitespace;
/// an integer is an optional sign and decimal digits, ends at its first
/// non-digit (the next field starts right there) and must fit its type.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next token, or empty when only whitespace is left.
  std::string_view token() {
    skipSpace();
    std::size_t n = 0;
    while (n < rest_.size() && !isSpace(rest_[n])) ++n;
    const std::string_view tok = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return tok;
  }

  template <typename Int>
  bool integer(Int& out) {
    skipSpace();
    const char* first = rest_.data();
    const char* const last = first + rest_.size();
    // from_chars takes '-' but not '+'; after a '+' a digit must follow,
    // so "+-5" stays an error.
    if (first != last && *first == '+') {
      ++first;
      if (first == last || *first < '0' || *first > '9') return false;
    }
    const auto [end, ec] = std::from_chars(first, last, out);
    if (ec != std::errc()) return false;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return true;
  }

 private:
  void skipSpace() {
    while (!rest_.empty() && isSpace(rest_.front())) rest_.remove_prefix(1);
  }

  std::string_view rest_;
};

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
/// Seed/byte perturbations decorrelating the hi word from the lo word.
constexpr std::uint64_t kHiSeedXor = 0x9e3779b97f4a7c15ull;
constexpr unsigned char kHiByteXor = 0x5c;

}  // namespace

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 8 * (7 - (i % 8));
    const auto byte = static_cast<unsigned char>((word >> shift) & 0xFFu);
    out[static_cast<std::size_t>(2 * i)] = kHex[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[byte & 0xF];
  }
  return out;
}

std::optional<Digest> Digest::fromHex(std::string_view s) {
  if (s.size() != 32) return std::nullopt;
  Digest d;
  for (int i = 0; i < 32; ++i) {
    const char c = s[static_cast<std::size_t>(i)];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    std::uint64_t& word = i < 16 ? d.hi : d.lo;
    word = (word << 4) | nibble;
  }
  return d;
}

DigestBuilder::DigestBuilder()
    : hi_(kFnvOffsetBasis ^ kHiSeedXor), lo_(kFnvOffsetBasis) {}

void DigestBuilder::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    lo_ = (lo_ ^ p[i]) * kFnvPrime;
    hi_ = (hi_ ^ static_cast<unsigned char>(p[i] ^ kHiByteXor)) * kFnvPrime;
  }
}

void DigestBuilder::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
  }
  bytes(le, sizeof(le));
}

void DigestBuilder::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

Digest traceDigest(const ReferenceTrace& trace) {
  if (!trace.finalized()) {
    throw std::invalid_argument(
        "traceDigest: trace must be finalized (finalize() canonicalises "
        "access order, making the digest content-addressed)");
  }
  DigestBuilder b;
  b.str("pimtrace");
  const auto& arrays = trace.dataSpace().arrays();
  b.u64(arrays.size());
  for (const DataSpace::ArrayInfo& a : arrays) {
    b.str(a.name);
    b.i64(a.rows);
    b.i64(a.cols);
  }
  b.u64(trace.accesses().size());
  for (const Access& acc : trace.accesses()) {
    b.i64(acc.step);
    b.i64(acc.proc);
    b.i64(acc.data);
    b.i64(acc.weight);
  }
  return b.digest();
}

void saveTrace(const ReferenceTrace& trace, std::ostream& os) {
  os << kMagic << '\n';
  for (const DataSpace::ArrayInfo& a : trace.dataSpace().arrays()) {
    os << "array " << a.name << ' ' << a.rows << ' ' << a.cols << '\n';
  }
  for (const Access& acc : trace.accesses()) {
    os << "access " << acc.step << ' ' << acc.proc << ' ' << acc.data << ' '
       << acc.weight << '\n';
  }
}

void saveTraceFile(const ReferenceTrace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("saveTraceFile: cannot open " + path);
  saveTrace(trace, os);
}

ReferenceTrace loadTrace(std::string_view text) {
  std::size_t pos = 0;
  // Splits exactly like std::getline: a final line without '\n' still
  // counts, a trailing '\n' does not start an empty one.
  const auto nextLine = [&](std::string_view& line) {
    if (pos >= text.size()) return false;
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    line = text.substr(pos, end - pos);
    pos = end + 1;
    return true;
  };

  std::string_view line;
  if (!nextLine(line) || line != kMagic) {
    throw std::runtime_error("loadTrace: missing 'pimtrace v1' header");
  }

  DataSpace ds;
  std::optional<ReferenceTrace> trace;
  int lineNo = 1;
  while (true) {
    const std::size_t lineStart = pos;
    if (!nextLine(line)) break;
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    Fields fields(line);
    const std::string_view kind = fields.token();
    if (kind == "array") {
      if (trace.has_value()) {
        throw std::runtime_error(
            "loadTrace: 'array' after first 'access' (line " +
            std::to_string(lineNo) + ")");
      }
      // An empty name means the line ended, so reading rows fails too.
      const std::string_view name = fields.token();
      int rows = 0, cols = 0;
      if (!fields.integer(rows) || !fields.integer(cols)) {
        throw std::runtime_error("loadTrace: malformed array line " +
                                 std::to_string(lineNo));
      }
      ds.addArray(std::string(name), rows, cols);
    } else if (kind == "access") {
      if (!trace.has_value()) {
        trace.emplace(std::move(ds));
        // Every access line is at least kMinAccessLineBytes long, so this
        // bounds the count from above without trusting a newline count.
        trace->reserve((text.size() - lineStart) / kMinAccessLineBytes);
      }
      StepId step = 0;
      ProcId proc = 0;
      DataId data = 0;
      Cost weight = 0;
      if (!fields.integer(step) || !fields.integer(proc) ||
          !fields.integer(data) || !fields.integer(weight)) {
        throw std::runtime_error("loadTrace: malformed access line " +
                                 std::to_string(lineNo));
      }
      trace->add(step, proc, data, weight);
    } else {
      throw std::runtime_error("loadTrace: unknown record '" +
                               std::string(kind) + "' at line " +
                               std::to_string(lineNo));
    }
  }
  if (!trace.has_value()) trace.emplace(std::move(ds));
  trace->finalize();
  return std::move(*trace);
}

ReferenceTrace loadTrace(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = std::move(buffer).str();
  return loadTrace(std::string_view(text));
}

ReferenceTrace loadTraceFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("loadTraceFile: cannot open " + path);
  return loadTrace(is);
}

}  // namespace pimsched
