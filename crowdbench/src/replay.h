// The traced per-request breakdown: re-executes one request's stages
// through the public API, each under its own span, so the per-layer cost
// of a rank shows stage by stage:
//
//   AnalyzeQueryText -> Planner::Lower -> PassManager::Run
//     -> ExecuteFragmentPlan -> ExpertFinder::AggregateExperts
//
// and the kernel split under it, called the way the retrieval kernel is
// benchmarked on its own: SearchIndex::Compile -> AccumulateCompiled ->
// ScoreAccumulator::TakeTop, plus AccumulatePrunedTopK for the block-max
// skip ratio.
#ifndef CROWDBENCH_REPLAY_H_
#define CROWDBENCH_REPLAY_H_

#include <cstdint>

#include "core/expert_finder.h"
#include "plan/passes.h"
#include "trace.h"

namespace crowdbench {

/// Re-executes `request` stage by stage on `finder` (whose serving pass
/// pipeline `passes` mirrors), each stage a span under `parent`. Writes the
/// replayed ranking to `*ranking` (callers compare it with what `Rank`
/// served). Returns false when a stage fails.
bool ReplayRankStages(const crowdex::core::ExpertFinder& finder,
                      const crowdex::plan::PassManager& passes,
                      const crowdex::core::RankRequest& request,
                      Tracer* tracer, uint64_t parent, uint64_t request_id,
                      std::vector<crowdex::core::ExpertScore>* ranking);

/// Kernel work counts of one replayed request (its times are the spans).
struct KernelWork {
  uint64_t matched = 0;
  uint64_t kernel_runs = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_scored = 0;
};

/// Runs the compiled retrieval kernel for `request` on `index` with no
/// eligibility filter, then the pruned kernel at the request's window, as
/// spans under `parent`.
KernelWork ReplayKernel(const crowdex::core::ExpertFinder& finder,
                        const crowdex::index::SearchIndex& index,
                        const crowdex::core::RankRequest& request,
                        Tracer* tracer, uint64_t parent, uint64_t request_id);

}  // namespace crowdbench

#endif  // CROWDBENCH_REPLAY_H_
