// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code around calls into each layer's public API: name,
// start, end, the span that caused it, and the request it belongs to. They
// stay in memory while the run measures and are written out when it ends.
#ifndef CROWDBENCH_TRACE_H_
#define CROWDBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace crowdbench {

struct SpanRecord {
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Requests number their spans; 0 for set-up and background work.
  uint64_t request = 0;
  /// A string literal naming the layer call, e.g. "plan.lower".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per span name: how many spans and their summed duration.
struct SpanSummary {
  size_t count = 0;
  double total_ms = 0.0;
  double MeanUs() const { return count ? total_ms * 1e3 / count : 0.0; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Record(const SpanRecord& span);

  std::map<std::string, SpanSummary> Summarize() const;
  /// Writes one JSON object per span to `path`, with its self time: its
  /// duration minus the part of it covered by its child spans.
  bool Write(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Records one span from construction to `End()` (or destruction). A null
/// tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return record_.id; }
  /// Ends the span; returns its duration in microseconds. Idempotent.
  double End();

 private:
  Tracer* tracer_;
  SpanRecord record_;
  bool ended_ = false;
};

}  // namespace crowdbench

#endif  // CROWDBENCH_TRACE_H_
