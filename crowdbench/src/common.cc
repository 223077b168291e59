#include "common.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include <fcntl.h>
#include <unistd.h>

#include "eval/experiment.h"

namespace crowdbench {

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kQueryMix:
      return "query_mix";
    case Workload::kNicheSharded:
      return "niche_sharded";
    case Workload::kIngestLive:
      return "ingest_live";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kQueryMix, Workload::kNicheSharded,
                     Workload::kIngestLive}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

namespace {

void ReportFailure(uint64_t count, const char* fmt, std::va_list args) {
  std::fprintf(stderr, "FAIL (%llu ops): ", static_cast<unsigned long long>(count));
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
}

}  // namespace

void RunResult::Fail(const char* fmt, ...) {
  ++failed;
  correct = false;
  std::va_list args;
  va_start(args, fmt);
  ReportFailure(1, fmt, args);
  va_end(args);
}

void RunResult::FailN(uint64_t count, const char* fmt, ...) {
  if (count == 0) return;
  failed += count;
  correct = false;
  std::va_list args;
  va_start(args, fmt);
  ReportFailure(count, fmt, args);
  va_end(args);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()) +
                                    0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool SameRanking(const crowdex::core::RankedExperts& a,
                 const crowdex::core::RankedExperts& b) {
  if (a.ranking.size() != b.ranking.size() ||
      a.matched_resources != b.matched_resources ||
      a.reachable_resources != b.reachable_resources ||
      a.considered_resources != b.considered_resources) {
    return false;
  }
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].candidate != b.ranking[i].candidate ||
        a.ranking[i].score != b.ranking[i].score) {
      return false;
    }
  }
  return true;
}

double EvalMap(const crowdex::synth::SyntheticWorld& world,
               const std::vector<crowdex::core::RankedExperts>& rankings) {
  crowdex::eval::ExperimentRunner runner(&world);
  std::vector<crowdex::eval::QueryResult> results;
  for (size_t i = 0; i < world.queries.size() && i < rankings.size(); ++i) {
    std::vector<int> ids;
    for (const auto& e : rankings[i].ranking) ids.push_back(e.candidate);
    results.push_back(runner.EvaluateRanking(world.queries[i], ids));
  }
  return crowdex::eval::ExperimentRunner::Aggregate(results).map;
}

void RemoveAndFlush(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::string parent = std::filesystem::path(dir).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace crowdbench
