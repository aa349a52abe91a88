#include "serve/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pimsched::serve {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

/// Hand-rolled recursive-descent parser over a string_view cursor. Offsets
/// in error messages are byte positions into the frame, which is what a
/// client debugging a rejected request needs.
class Parser {
 public:
  Parser(std::string_view text, int maxDepth)
      : text_(text), maxDepth_(maxDepth) {}

  Json run() {
    Json v = value(0);
    skipWs();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value at offset " +
           std::to_string(pos_));
    }
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_));
    }
    ++pos_;
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > maxDepth_) fail("nesting too deep");
    skipWs();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json(string());
      case 't':
        if (consumeLiteral("true")) return Json(true);
        fail("invalid literal at offset " + std::to_string(pos_));
      case 'f':
        if (consumeLiteral("false")) return Json(false);
        fail("invalid literal at offset " + std::to_string(pos_));
      case 'n':
        if (consumeLiteral("null")) return Json(nullptr);
        fail("invalid literal at offset " + std::to_string(pos_));
      default: return number();
    }
  }

  Json object(int depth) {
    expect('{');
    Json::Object out;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      out[std::move(key)] = value(depth + 1);
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(out));
    }
  }

  Json array(int depth) {
    expect('[');
    Json::Array out;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      out.push_back(value(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(out));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, backslash or control byte with
      // one append.
      std::size_t end = pos_;
      while (end < text_.size() && !isStringStop(text_[end])) ++end;
      out.append(text_, pos_, end - pos_);
      pos_ = end;
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendUnicode(out); break;
        default: fail("invalid escape in string");
      }
    }
  }

  static bool isStringStop(char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  }

  unsigned hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return cp;
  }

  void appendUnicode(std::string& out) {
    unsigned cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired surrogate in \\u escape");
      }
      pos_ += 2;
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool isInt = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        isInt = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number at offset " + std::to_string(start));
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (isInt) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<std::int64_t>(v));
      }
      // fall through to double on int64 overflow
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size() ||
        !std::isfinite(d)) {
      fail("invalid number '" + token + "'");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int maxDepth_;
};

void dumpString(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dumpValue(const Json& v, std::string& out);

void dumpNumber(double d, std::string& out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void dumpValue(const Json& v, std::string& out) {
  if (v.isNull()) {
    out += "null";
  } else if (v.isBool()) {
    out += v.asBool() ? "true" : "false";
  } else if (v.isString()) {
    dumpString(v.asString(), out);
  } else if (v.isObject()) {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : v.asObject()) {
      if (!first) out.push_back(',');
      first = false;
      dumpString(key, out);
      out.push_back(':');
      dumpValue(value, out);
    }
    out.push_back('}');
  } else if (v.isArray()) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : v.asArray()) {
      if (!first) out.push_back(',');
      first = false;
      dumpValue(item, out);
    }
    out.push_back(']');
  } else {
    // number: render exactly when it is an int64
    try {
      out += std::to_string(v.asInt64());
    } catch (const JsonError&) {
      dumpNumber(v.asDouble(), out);
    }
  }
}

}  // namespace

bool Json::asBool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  fail("expected bool");
}

double Json::asDouble() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  fail("expected number");
}

std::int64_t Json::asInt64() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const double* d = std::get_if<double>(&value_)) {
    if (*d == std::floor(*d) &&
        *d >= -9007199254740992.0 && *d <= 9007199254740992.0) {
      return static_cast<std::int64_t>(*d);
    }
    fail("expected integer, got non-integral number");
  }
  fail("expected integer");
}

const std::string& Json::asString() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  fail("expected string");
}

const Json::Object& Json::asObject() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  fail("expected object");
}

const Json::Array& Json::asArray() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  fail("expected array");
}

const Json* Json::find(const std::string& key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Json& Json::set(std::string key, Json value) {
  if (isNull()) value_ = Object{};
  Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) fail("set() on a non-object");
  (*o)[std::move(key)] = std::move(value);
  return *this;
}

Json Json::parse(std::string_view text, int maxDepth) {
  return Parser(text, maxDepth).run();
}

std::string Json::dump() const {
  std::string out;
  dumpValue(*this, out);
  return out;
}

}  // namespace pimsched::serve
