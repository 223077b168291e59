// query_mix: read-only serving from a single index. Two closed-loop clients
// rank free-text needs drawn from a Zipf law over a pool of a few thousand
// distinct texts — far more than the 256-entry plan cache holds, so query
// analysis, lowering, passes, compile-on-miss, the kernel and Eq. 3
// aggregation all take a visible share of each request.
#include <atomic>
#include <cstdio>
#include <mutex>

#include "inputs.h"
#include "loop.h"
#include "replay.h"
#include "report.h"
#include "setup.h"
#include "workloads.h"

namespace crowdbench {

using namespace crowdex;

namespace {

constexpr int kClients = 2;
constexpr size_t kPoolSize = 4000;
constexpr double kZipfExponent = 0.6;
constexpr size_t kStreamLength = size_t{1} << 20;
/// Every this-many-th request keeps its served ranking for the re-rank
/// check, up to `kMaxSamples` of them.
constexpr uint64_t kSampleEvery = 61;
constexpr size_t kMaxSamples = 400;
/// Nodes of the traced analysis replay.
constexpr size_t kReplayNodes = 4000;

}  // namespace

RunResult RunQueryMix(const Options& opt) {
  RunResult result;
  const std::vector<std::string> pool = inputs::NeedPool(opt.seed, kPoolSize);
  const std::vector<uint32_t> stream = inputs::ZipfStream(
      opt.seed, pool.size(), kStreamLength, kZipfExponent);
  const synth::WorldConfig config =
      inputs::WorldConfigFor(opt.seed, inputs::kServingScale);
  std::printf("# query_mix: scale %.2f, %zu distinct needs (Zipf %.2f) vs a "
              "%d-entry plan cache, %d closed-loop clients\n",
              config.scale, pool.size(), kZipfExponent,
              core::ExpertFinderConfig{}.query_cache_capacity, kClients);

  Tracer tracer;
  Tracer* trace = opt.trace ? &tracer : nullptr;
  std::mutex sample_mu;
  std::vector<std::pair<uint32_t, core::RankedExperts>> samples;
  auto keep_sample = [&](uint64_t seq, uint32_t need,
                         const core::RankedExperts& ranked) {
    if (seq % kSampleEvery != 0) return;
    std::lock_guard<std::mutex> lock(sample_mu);
    if (samples.size() < kMaxSamples) samples.emplace_back(need, ranked);
  };
  const core::ExpertFinder* serving = nullptr;  // what the clients rank on
  auto serve = [&](uint64_t seq, double* ms) {
    const uint32_t need = stream[seq % stream.size()];
    core::RankRequest request;
    request.text = pool[need];
    const Clock::time_point t0 = Clock::now();
    Result<core::RankedExperts> ranked = serving->Rank(request);
    *ms = MsBetween(t0, Clock::now());
    if (!ranked.ok()) return false;
    keep_sample(seq, need, ranked.value());
    return true;
  };

  // Untraced runs serve one slice of the window after each set-up. Every
  // set-up builds the same world from the seed, so every slice serves the
  // same rankings.
  LoopResult loop;
  std::vector<double> setup_s;
  std::vector<double> create_s;
  std::unique_ptr<ServingWorld> w = RepeatSetUp(
      opt, &setup_s, &create_s,
      [&](SetupTimes* times) {
        return BuildServingWorld(config, opt.nproc, trace, times);
      },
      [&](const ServingWorld& built) {
        if (opt.trace) return;
        serving = &*built.finder;
        loop.Append(RunClosedLoop(kClients, kWarmupSeconds,
                                  opt.seconds / kSetupRepeats, serve));
      });
  if (w == nullptr) {
    result.Fail("query_mix: set-up failed");
    return result;
  }
  const core::ExpertFinder& finder = *w->finder;
  serving = &finder;
  std::printf("# query_mix: %zu nodes, %zu indexed resources\n",
              w->world.TotalNodes(), finder.corpus().document_count());

  EndToEnd e2e;
  PerLayer layer;
  if (!opt.trace) {
    e2e.peak_rss_mb = PeakRssMb();
  } else {
    // Untraced half first: the baseline of the trace overhead and the
    // plan-cache hit ratio of the real request stream.
    const plan::PlanCache::Stats before = finder.plan_cache_stats();
    const LoopResult untraced =
        RunClosedLoop(kClients, kWarmupSeconds, opt.seconds / 2, serve);
    const plan::PlanCache::Stats after = finder.plan_cache_stats();
    const double lookups = static_cast<double>(
        (after.hits + after.misses) - (before.hits + before.misses));
    layer.plan_cache_hit_ratio =
        lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                    : 0.0;

    // Traced half: every request's Rank under a span, then its stages and
    // kernel re-executed through the public API.
    plan::PassManager passes =
        plan::PassManager::ServingPipeline(plan::PipelineOptions{});
    const index::SearchIndex& sidx = finder.corpus().search_index();
    std::atomic<uint64_t> matched{0}, runs{0}, skipped{0}, scored{0},
        replays{0}, replay_mismatch{0};
    auto serve_traced = [&](uint64_t seq, double* ms) {
      const uint32_t need = stream[seq % stream.size()];
      core::RankRequest request;
      request.text = pool[need];
      const uint64_t id = seq + 1;
      ScopedSpan root(&tracer, "request", 0, id);
      Result<core::RankedExperts> ranked = Status::Internal("not run");
      {
        ScopedSpan span(&tracer, "core.rank", root.id(), id);
        ranked = finder.Rank(request);
        *ms = span.End() / 1e3;
      }
      if (!ranked.ok()) return false;
      keep_sample(seq, need, ranked.value());
      std::vector<core::ExpertScore> replayed;
      {
        ScopedSpan span(&tracer, "core.rank_replay", root.id(), id);
        if (!ReplayRankStages(finder, passes, request, &tracer, span.id(), id,
                              &replayed)) {
          replay_mismatch.fetch_add(1);
        }
      }
      core::RankedExperts replay_ranked = ranked.value();
      replay_ranked.ranking = replayed;
      if (!SameRanking(replay_ranked, ranked.value())) {
        replay_mismatch.fetch_add(1);
      }
      KernelWork kw;
      {
        ScopedSpan span(&tracer, "index.kernel_replay", root.id(), id);
        kw = ReplayKernel(finder, sidx, request, &tracer, span.id(), id);
      }
      matched.fetch_add(kw.matched);
      runs.fetch_add(kw.kernel_runs);
      skipped.fetch_add(kw.blocks_skipped);
      scored.fetch_add(kw.blocks_scored);
      replays.fetch_add(1);
      return true;
    };
    loop = RunClosedLoop(kClients, kWarmupSeconds, opt.seconds / 2,
                         serve_traced);
    if (replay_mismatch.load() != 0) {
      result.Fail("query_mix: %llu stage replays diverged from Rank",
                  static_cast<unsigned long long>(replay_mismatch.load()));
    }

    layer.analysis = ReplayAnalysis(*w, opt.seed, kReplayNodes, &tracer);
    const auto spans = tracer.Summarize();
    FillSetupLayers(spans, w->world.TotalNodes(), &layer);
    layer.text_query_analyze_us = MeanUs(spans, "text.query_analyze");
    layer.plan_lower_us = MeanUs(spans, "plan.lower");
    layer.plan_passes_us = MeanUs(spans, "plan.passes");
    layer.index_compile_us = MeanUs(spans, "index.compile");
    layer.index_accumulate_us = MeanUs(spans, "index.accumulate");
    layer.index_take_top_us = MeanUs(spans, "index.take_top");
    layer.core_aggregate_us = MeanUs(spans, "core.aggregate");
    const double n = static_cast<double>(std::max<uint64_t>(1, replays.load()));
    layer.index_matched_per_query = static_cast<double>(matched.load()) / n;
    layer.index_kernel_runs_per_query = static_cast<double>(runs.load()) / n;
    const double blocks = static_cast<double>(skipped.load() + scored.load());
    layer.index_prune_skip_ratio =
        blocks > 0 ? static_cast<double>(skipped.load()) / blocks : 0.0;
    // Stage-sum reconciliation against Rank wall time. The replayed
    // fragment always hits the plan cache (Rank just filled it), so the
    // compile a missing Rank paid is charged at the measured miss ratio.
    const double rank_ms = spans.count("core.rank") ? spans.at("core.rank").total_ms : 0.0;
    double stage_ms = 0.0;
    for (const char* s : {"text.query_analyze", "plan.lower", "plan.passes",
                          "core.fragment", "core.aggregate"}) {
      if (spans.count(s)) stage_ms += spans.at(s).total_ms;
    }
    stage_ms += (1.0 - layer.plan_cache_hit_ratio) * layer.index_compile_us /
                1e3 * (spans.count("core.rank") ? spans.at("core.rank").count : 0);
    layer.core_rank_unattributed_frac =
        rank_ms > 0 ? (rank_ms - stage_ms) / rank_ms : 0.0;
    const double untraced_p50 = Percentile(untraced.latency_ms, 0.5);
    layer.obs_trace_overhead_ratio =
        untraced_p50 > 0 ? Percentile(loop.latency_ms, 0.5) / untraced_p50
                         : 0.0;
    loop.attempted += untraced.attempted;
    loop.failed += untraced.failed;
  }
  result.attempted += loop.attempted;
  result.FailN(loop.failed, "query_mix: Rank returned an error");

  // Correctness, outside the measured window: the kept rankings re-ranked
  // on a second finder with the plan cache off must match bit for bit.
  core::ExpertFinderConfig no_cache;
  no_cache.query_cache_capacity = 0;
  Result<core::ExpertFinder> reference =
      core::ExpertFinder::Create(&w->analyzed, no_cache, &finder.corpus());
  if (!reference.ok()) {
    result.Fail("query_mix: reference finder: %s",
                reference.status().ToString().c_str());
    return result;
  }
  for (const auto& [need, served] : samples) {
    core::RankRequest request;
    request.text = pool[need];
    Result<core::RankedExperts> want = reference.value().Rank(request);
    if (!want.ok() || !SameRanking(want.value(), served)) {
      result.Fail("query_mix: served ranking of need %u differs from the "
                  "cache-off re-rank",
                  need);
    }
  }
  std::vector<core::RankedExperts> eval_rankings;
  for (const synth::ExpertiseNeed& q : w->world.queries) {
    core::RankRequest request;
    request.text = q.text;
    Result<core::RankedExperts> ranked = finder.Rank(request);
    if (!ranked.ok()) {
      result.Fail("query_mix: evaluation query %d errored", q.id);
      continue;
    }
    eval_rankings.push_back(std::move(ranked).value());
  }
  std::printf("# query_mix: %zu served rankings re-ranked cache-off\n",
              samples.size());

  if (opt.trace) {
    Emit(layer, &result);
    if (!tracer.Write(opt.work_dir + "/spans_query_mix.jsonl")) {
      result.Fail("query_mix: could not write the span file");
    }
    return result;
  }
  e2e.setup_s = Percentile(setup_s, 0.5);
  e2e.rank_qps = loop.Qps();
  e2e.rank_p50_ms = Percentile(loop.latency_ms, 0.5);
  // The median of the slices' p99s: a stretch of host stalls in one slice
  // moves it no more than one slice.
  e2e.rank_p99_ms = Percentile(loop.slice_p99_ms, 0.5);
  e2e.ingest_docs_per_s = static_cast<double>(finder.corpus().document_count()) /
                          Percentile(create_s, 0.5);
  e2e.eval_map = EvalMap(w->world, eval_rankings);
  std::printf("# query_mix: %zu measured ranks, plan cache %llu hits / %llu "
              "misses\n",
              loop.latency_ms.size(),
              static_cast<unsigned long long>(finder.plan_cache_stats().hits),
              static_cast<unsigned long long>(finder.plan_cache_stats().misses));
  Emit(e2e, &result);
  return result;
}

}  // namespace crowdbench
