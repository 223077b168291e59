// Shared plumbing of the crowdex benchmark: command-line options, the
// result record every workload fills, timing and percentile helpers, and
// the bit-for-bit ranking comparison the correctness checks use.
#ifndef CROWDBENCH_COMMON_H_
#define CROWDBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/expert_finder.h"

namespace crowdbench {

using Clock = std::chrono::steady_clock;

enum class Workload { kQueryMix, kNicheSharded, kIngestLive };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

/// What one invocation was asked to do.
struct Options {
  Workload workload = Workload::kQueryMix;
  uint64_t seed = 1;
  /// Length of the measured window, in seconds.
  double seconds = 10.0;
  /// False: end-to-end metrics from an untraced run. True: per-layer
  /// metrics from a traced run (spans written to `trace_path`).
  bool trace = false;
  /// Scratch directory inside the checkout (snapshots, segments, spans).
  std::string work_dir;
  /// Hardware threads; client plus pool threads never exceed it.
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The outcome of one workload run: the metrics it reports plus the
/// attempted/failed operation counts. `Fail` records a failed operation
/// (an error status, a degraded sharded response, or a ranking that failed
/// its correctness check) and marks the run incorrect.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// `count` failed operations sharing one cause (no-op when 0).
  void FailN(uint64_t count, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
};

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Nearest-rank percentile (`p` in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Bit-for-bit equality of two rankings: every candidate and score bit,
/// plus the matched / reachable / considered resource counts.
bool SameRanking(const crowdex::core::RankedExperts& a,
                 const crowdex::core::RankedExperts& b);

/// MAP of `rankings` (one per query of `world.queries`, in order) against
/// the world's ground truth — the paper's evaluation.
double EvalMap(const crowdex::synth::SyntheticWorld& world,
               const std::vector<crowdex::core::RankedExperts>& rankings);

/// Removes `dir` and everything under it, then flushes the file system
/// that held it, so the write-back of earlier output does not land in a
/// later measured window.
void RemoveAndFlush(const std::string& dir);

/// Size in bytes of every regular file under `dir` (recursively).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace crowdbench

#endif  // CROWDBENCH_COMMON_H_
