#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace crowdbench {
namespace {

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index_of.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index_of.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t from = std::max(s.start_ns, spans[c].start_ns);
      const int64_t to = std::min(s.end_ns, spans[c].end_ns);
      if (from < to) covered.emplace_back(from, to);
    }
    std::sort(covered.begin(), covered.end());
    int64_t busy = 0;
    int64_t reach = s.start_ns;
    for (const auto& [from, to] : covered) {
      const int64_t begin = std::max(from, reach);
      if (to > begin) {
        busy += to - begin;
        reach = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - busy;
  }
  return self;
}

}  // namespace

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& span : spans_) {
    SpanSummary& s = out[span.name];
    ++s.count;
    s.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<double>(self[i]) / 1e3);
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->NextId();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  record_.start_ns = tracer_->NowNs();
}

double ScopedSpan::End() {
  if (tracer_ == nullptr) return 0.0;
  if (!ended_) {
    ended_ = true;
    record_.end_ns = tracer_->NowNs();
    tracer_->Record(record_);
  }
  return static_cast<double>(record_.end_ns - record_.start_ns) / 1e3;
}

}  // namespace crowdbench
