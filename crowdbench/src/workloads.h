// The three workloads. Each sets itself up from the seed, measures for
// `Options::seconds`, checks its outputs, and returns the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#ifndef CROWDBENCH_WORKLOADS_H_
#define CROWDBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "setup.h"

namespace crowdbench {

/// Set-ups per untraced run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 3;
/// Unmeasured serving at the start of every measured phase.
inline constexpr double kWarmupSeconds = 0.5;

/// Runs `set_up(&times)` kSetupRepeats times (once when tracing) and keeps
/// the last result, freeing each before building the next. Appends every
/// set-up's wall time to `setup_s` and its `ExpertFinder::Create` time to
/// `create_s`, and calls `after(*result)` once each set-up is timed — the
/// read-only workloads measure one slice of their window there, so the
/// window spreads over the whole run instead of one stretch of it. Returns
/// null as soon as a set-up fails.
template <typename SetUp, typename After>
auto RepeatSetUp(const Options& opt, std::vector<double>* setup_s,
                 std::vector<double>* create_s, const SetUp& set_up,
                 const After& after) {
  decltype(set_up(nullptr)) out;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    out.reset();
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    out = set_up(&times);
    if (out == nullptr) break;
    setup_s->push_back(SecondsSince(t0));
    create_s->push_back(times.create_s);
    after(*out);
  }
  return out;
}

RunResult RunQueryMix(const Options& options);
RunResult RunNicheSharded(const Options& options);
RunResult RunIngestLive(const Options& options);

}  // namespace crowdbench

#endif  // CROWDBENCH_WORKLOADS_H_
