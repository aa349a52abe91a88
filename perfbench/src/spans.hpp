#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t nowNs();  ///< steady clock

/// One timed call at a layer boundary. `parent` indexes the span that
/// caused it (-1 for a root); `id` names the job or window it served.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "trace.load"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
  std::int64_t id = -1;
};

/// In-memory span store for the traced run. Spans are appended as calls
/// finish and written out only when the benchmark ends, so recording costs
/// two clock reads and a locked push_back. A disabled recorder records
/// nothing; the untraced pass uses one so both passes run the same code.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string name, std::int64_t id, int parent = -1);
  void close(int index);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations in ms of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durationsMs(const std::string& name) const;
  /// Self time (duration minus the time its children cover) summed per
  /// layer, the name up to its first '.'.
  [[nodiscard]] std::map<std::string, double> selfMsByLayer() const;
  /// chrome://tracing JSON, one complete event per span; the parent and
  /// the job/window id ride in args.
  void writeChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::int64_t id,
             int parent = -1)
      : rec_(&rec), index_(rec.open(std::move(name), id, parent)) {}
  ~ScopedSpan() { rec_->close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
