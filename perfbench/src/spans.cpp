#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(std::string name, std::int64_t id, int parent) {
  if (!enabled_) return -1;
  Span span{std::move(name), nowNs(), 0, parent, id};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  const std::int64_t end = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::durationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::selfMsByLayer() const {
  const std::vector<Span> all = spans();
  std::vector<std::int64_t> childNs(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string layer = all[i].name.substr(0, all[i].name.find('.'));
    const std::int64_t self =
        std::max<std::int64_t>(0, all[i].endNs - all[i].startNs - childNs[i]);
    out[layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

void SpanRecorder::writeChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const std::int64_t origin = all.empty() ? 0 : all.front().startNs;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.startNs - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
