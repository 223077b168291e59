#include "replay.h"

#include "plan/planner.h"

namespace crowdbench {

using namespace crowdex;

bool ReplayRankStages(const core::ExpertFinder& finder,
                      const plan::PassManager& passes,
                      const core::RankRequest& request, Tracer* tracer,
                      uint64_t parent, uint64_t request_id,
                      std::vector<core::ExpertScore>* ranking) {
  index::AnalyzedQuery storage;
  const index::AnalyzedQuery* query = nullptr;
  {
    ScopedSpan span(tracer, "text.query_analyze", parent, request_id);
    query = finder.AnalyzeQueryText(request, &storage);
  }
  Result<core::ExpertFinder::RankParams> params =
      core::ExpertFinder::ResolveParams(finder.config(), request);
  if (!params.ok()) return false;
  plan::QueryPlan plan;
  {
    ScopedSpan span(tracer, "plan.lower", parent, request_id);
    plan::PlanOptions options;
    options.use_compiled = finder.serving_compiled();
    options.aggregation = core::AggregationModeLabel(finder.config().aggregation);
    plan = plan::Planner::Lower(*query, params.value().alpha,
                                params.value().window_size,
                                params.value().window_fraction, options);
  }
  {
    ScopedSpan span(tracer, "plan.passes", parent, request_id);
    passes.Run(&plan);
  }
  const plan::PlanNode* score =
      plan::FindNode(plan.root, plan::PlanNodeKind::kScore);
  if (score == nullptr) return false;
  const size_t limit =
      params.value().window_size > 0
          ? static_cast<size_t>(params.value().window_size)
          : 0;
  std::vector<core::ExpertFinder::FragmentEntry> windowed;
  {
    ScopedSpan span(tracer, "core.fragment", parent, request_id);
    Result<core::ExpertFinder::RankFragment> fragment =
        finder.ExecuteFragmentPlan(*score, limit);
    if (!fragment.ok()) return false;
    windowed = std::move(fragment).value().entries;
    const size_t window = core::ExpertFinder::ResolveWindow(
        windowed.size(), params.value());
    if (windowed.size() > window) windowed.resize(window);
  }
  {
    ScopedSpan span(tracer, "core.aggregate", parent, request_id);
    *ranking = core::ExpertFinder::AggregateExperts(
        finder.config(), finder.num_candidates(), windowed);
  }
  return true;
}

KernelWork ReplayKernel(const core::ExpertFinder& finder,
                        const index::SearchIndex& index,
                        const core::RankRequest& request, Tracer* tracer,
                        uint64_t parent, uint64_t request_id) {
  // One accumulator per thread, reused across requests like the serving
  // path's.
  thread_local index::ScoreAccumulator acc;
  KernelWork work;
  index::AnalyzedQuery storage;
  const index::AnalyzedQuery* query = finder.AnalyzeQueryText(request, &storage);
  const double alpha = request.alpha.value_or(finder.config().alpha);
  const int window = request.window_size.value_or(finder.config().window_size);
  index::CompiledQuery compiled;
  {
    ScopedSpan span(tracer, "index.compile", parent, request_id);
    compiled = index.Compile(*query);
  }
  {
    ScopedSpan span(tracer, "index.accumulate", parent, request_id);
    const index::RetrievalStats stats =
        index.AccumulateCompiled(compiled, alpha, nullptr, &acc);
    work.matched = stats.matched;
    work.kernel_runs = stats.kernel_runs;
  }
  std::vector<index::ScoredDoc> top;
  {
    ScopedSpan span(tracer, "index.take_top", parent, request_id);
    acc.TakeTop(window > 0 ? static_cast<size_t>(window) : acc.candidate_count(),
                &top);
  }
  if (window > 0) {
    ScopedSpan span(tracer, "index.accumulate_pruned", parent, request_id);
    index::PruneStats prune;
    (void)index.AccumulatePrunedTopK(compiled, alpha, nullptr,
                                     static_cast<size_t>(window), &acc, &prune);
    work.blocks_skipped = prune.blocks_skipped;
    work.blocks_scored = prune.blocks_scored;
  }
  return work;
}

}  // namespace crowdbench
