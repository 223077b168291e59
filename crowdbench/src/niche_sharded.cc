// niche_sharded: selective needs served through ShardRouter::Rank at 4
// shards (fault injection off), scattered on the client thread: with a
// router pool, the wake-up stalls of this host's idle vCPUs made the p99
// swing between two modes from run to run. Each need is two rare words from one
// subtopic slice amid high-frequency chit-chat filler, ranked with a
// per-request window of 10; about 150 distinct needs, which fit in the
// plan cache. The retrieval kernel over long filler posting lists does most
// of the work and a request waits for its slowest shard. Set-up partitions
// the finder, saves the shard set and serves the reloaded copy.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "core/shard_router.h"
#include "inputs.h"
#include "loop.h"
#include "plan/planner.h"
#include "replay.h"
#include "report.h"
#include "setup.h"
#include "workloads.h"

namespace crowdbench {

using namespace crowdex;

namespace {

constexpr int kShards = 4;
constexpr int kClients = 1;
constexpr int kWindow = 10;
constexpr size_t kNeeds = 150;
constexpr size_t kStreamLength = size_t{1} << 18;
constexpr uint64_t kSampleEvery = 23;
constexpr size_t kMaxSamples = 400;
constexpr size_t kReplayNodes = 4000;

/// Everything the workload serves from, built by one set-up.
struct ShardedSetup {
  std::unique_ptr<ServingWorld> w;
  uint64_t fingerprint = 0;
  uint64_t snapshot_bytes = 0;
  std::optional<core::ShardRouter> router;
};

std::unique_ptr<ShardedSetup> SetUp(const synth::WorldConfig& config,
                                    const Options& opt, Tracer* tracer,
                                    SetupTimes* times, RunResult* result) {
  auto s = std::make_unique<ShardedSetup>();
  s->w = BuildServingWorld(config, opt.nproc, tracer, times);
  if (s->w == nullptr) {
    result->Fail("niche_sharded: set-up failed");
    return nullptr;
  }
  s->fingerprint = synth::HashWorldConfig(config);
  const std::string dir = opt.work_dir + "/shards";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    std::optional<core::ShardRouter> partitioned;
    {
      ScopedSpan span(tracer, "core.partition");
      Result<core::ShardRouter> r = core::ShardRouter::Partition(
          *s->w->finder, kShards, core::ShardRouterConfig{});
      if (!r.ok()) {
        result->Fail("niche_sharded: Partition: %s",
                     r.status().ToString().c_str());
        return nullptr;
      }
      partitioned.emplace(std::move(r).value());
    }
    ScopedSpan span(tracer, "io.shard_save");
    Status saved = partitioned->SaveShardSet(1, s->fingerprint, dir);
    if (!saved.ok()) {
      result->Fail("niche_sharded: SaveShardSet: %s",
                   saved.ToString().c_str());
      return nullptr;
    }
  }
  s->snapshot_bytes = DirectoryBytes(dir);
  {
    ScopedSpan span(tracer, "io.shard_load");
    Result<core::ShardRouter> loaded = core::ShardRouter::LoadShardSet(
        dir, s->fingerprint, s->w->analyzed.extractor.get(),
        core::ShardRouterConfig{});
    if (!loaded.ok()) {
      result->Fail("niche_sharded: LoadShardSet: %s",
                   loaded.status().ToString().c_str());
      return nullptr;
    }
    s->router.emplace(std::move(loaded).value());
  }
  return s;
}

}  // namespace

RunResult RunNicheSharded(const Options& opt) {
  RunResult result;
  const std::vector<std::string> needs = inputs::NicheNeeds(opt.seed, kNeeds);
  const std::vector<uint32_t> stream =
      inputs::UniformStream(opt.seed, needs.size(), kStreamLength);
  const synth::WorldConfig config =
      inputs::WorldConfigFor(opt.seed, inputs::kServingScale);
  std::printf("# niche_sharded: scale %.2f, %zu distinct needs, window %d, "
              "%d shards scattered on %d client thread\n",
              config.scale, needs.size(), kWindow, kShards, kClients);

  Tracer tracer;
  Tracer* trace = opt.trace ? &tracer : nullptr;
  auto request_for = [&](uint64_t seq) {
    core::RankRequest request;
    request.text = needs[stream[seq % stream.size()]];
    request.window_size = kWindow;
    return request;
  };
  std::mutex sample_mu;
  std::vector<std::pair<uint64_t, core::RankedExperts>> samples;
  std::atomic<uint64_t> incomplete{0};
  const core::ShardRouter* serving = nullptr;  // what the client ranks on
  // One sharded rank: an error or a response missing a shard fails.
  auto rank = [&](uint64_t seq, const core::RankRequest& request) {
    Result<core::ShardedRankResult> r = serving->Rank(request);
    if (!r.ok()) return false;
    if (!r.value().complete) {
      incomplete.fetch_add(1);
      return false;
    }
    if (seq % kSampleEvery == 0) {
      std::lock_guard<std::mutex> lock(sample_mu);
      if (samples.size() < kMaxSamples) {
        samples.emplace_back(seq, std::move(r).value().ranked);
      }
    }
    return true;
  };
  auto serve = [&](uint64_t seq, double* ms) {
    const core::RankRequest request = request_for(seq);
    const Clock::time_point t0 = Clock::now();
    const bool ok = rank(seq, request);
    *ms = MsBetween(t0, Clock::now());
    return ok;
  };

  // Untraced runs serve one slice of the window after each set-up (as in
  // query_mix); every set-up rebuilds the same shard set from the seed. The
  // router holds the loaded shards in memory, so the files are dropped and
  // the file system flushed first: the write-back of set-up's snapshots
  // stays out of the measured window.
  LoopResult loop;
  std::vector<double> setup_s;
  std::vector<double> create_s;
  std::unique_ptr<ShardedSetup> s = RepeatSetUp(
      opt, &setup_s, &create_s,
      [&](SetupTimes* times) {
        return SetUp(config, opt, trace, times, &result);
      },
      [&](const ShardedSetup& built) {
        RemoveAndFlush(opt.work_dir + "/shards");
        if (opt.trace) return;
        serving = &*built.router;
        loop.Append(RunClosedLoop(kClients, kWarmupSeconds,
                                  opt.seconds / kSetupRepeats, serve));
      });
  if (s == nullptr) return result;
  const core::ExpertFinder& finder = *s->w->finder;
  const core::ShardRouter& router = *s->router;
  serving = &router;
  std::printf("# niche_sharded: %zu indexed resources, %llu snapshot bytes\n",
              finder.corpus().document_count(),
              static_cast<unsigned long long>(s->snapshot_bytes));

  EndToEnd e2e;
  PerLayer layer;
  if (!opt.trace) {
    e2e.peak_rss_mb = PeakRssMb();
  } else {
    const LoopResult untraced =
        RunClosedLoop(kClients, kWarmupSeconds, opt.seconds / 2, serve);

    // The per-shard split re-executes each request's fragments on the
    // finder's own PartitionShards output, one shard after another.
    Result<std::vector<core::FinderShard>> shards =
        finder.PartitionShards(kShards);
    if (!shards.ok()) {
      result.Fail("niche_sharded: PartitionShards: %s",
                  shards.status().ToString().c_str());
      return result;
    }
    plan::PipelineOptions pipeline;
    pipeline.sharded = true;
    pipeline.num_shards = kShards;
    const plan::PassManager passes = plan::PassManager::ServingPipeline(pipeline);
    const index::SearchIndex& sidx = finder.corpus().search_index();
    std::vector<double> max_over_mean;
    std::vector<double> gather_us;
    uint64_t matched = 0, runs = 0, skipped = 0, scored = 0, replays = 0;
    auto serve_traced = [&](uint64_t seq, double* ms) {
      const core::RankRequest request = request_for(seq);
      const uint64_t id = seq + 1;
      ScopedSpan root(&tracer, "request", 0, id);
      bool ok = false;
      double wall_us = 0.0;
      {
        ScopedSpan span(&tracer, "core.router_rank", root.id(), id);
        ok = rank(seq, request);
        wall_us = span.End();
        *ms = wall_us / 1e3;
      }
      if (!ok) return false;
      ScopedSpan replay(&tracer, "core.shard_replay", root.id(), id);
      index::AnalyzedQuery storage;
      const index::AnalyzedQuery* query = nullptr;
      {
        ScopedSpan span(&tracer, "text.query_analyze", replay.id(), id);
        query = finder.AnalyzeQueryText(request, &storage);
      }
      plan::QueryPlan plan;
      {
        ScopedSpan span(&tracer, "plan.lower", replay.id(), id);
        plan::PlanOptions options;
        options.use_compiled = finder.serving_compiled();
        options.aggregation =
            core::AggregationModeLabel(finder.config().aggregation);
        plan = plan::Planner::Lower(*query, finder.config().alpha, kWindow,
                                    finder.config().window_fraction, options);
      }
      {
        ScopedSpan span(&tracer, "plan.passes", replay.id(), id);
        passes.Run(&plan);
      }
      const plan::PlanNode* fanout =
          plan::FindNode(plan.root, plan::PlanNodeKind::kShardFanout);
      if (fanout == nullptr || fanout->children.empty()) return false;
      double slowest = 0.0, sum = 0.0;
      for (const core::FinderShard& shard : shards.value()) {
        ScopedSpan span(&tracer, "core.shard.fragment", replay.id(), id);
        Result<core::ExpertFinder::RankFragment> frag =
            shard.finder.ExecuteFragmentPlan(fanout->children[0],
                                             fanout->per_shard_limit);
        const double us = span.End();
        if (!frag.ok()) return false;
        slowest = std::max(slowest, us);
        sum += us;
      }
      max_over_mean.push_back(sum > 0 ? slowest / (sum / kShards) : 0.0);
      gather_us.push_back(wall_us - slowest);
      replay.End();
      KernelWork kw;
      {
        ScopedSpan span(&tracer, "index.kernel_replay", root.id(), id);
        kw = ReplayKernel(finder, sidx, request, &tracer, span.id(), id);
      }
      matched += kw.matched;
      runs += kw.kernel_runs;
      skipped += kw.blocks_skipped;
      scored += kw.blocks_scored;
      ++replays;
      return true;
    };
    loop = RunClosedLoop(kClients, kWarmupSeconds, opt.seconds / 2,
                         serve_traced);

    layer.analysis = ReplayAnalysis(*s->w, opt.seed, kReplayNodes, &tracer);
    const auto spans = tracer.Summarize();
    FillSetupLayers(spans, s->w->world.TotalNodes(), &layer);
    layer.core_partition_ms = MeanUs(spans, "core.partition") / 1e3;
    layer.io_shard_save_ms = MeanUs(spans, "io.shard_save") / 1e3;
    layer.io_shard_load_ms = MeanUs(spans, "io.shard_load") / 1e3;
    layer.io_snapshot_bytes = static_cast<double>(s->snapshot_bytes);
    layer.text_query_analyze_us = MeanUs(spans, "text.query_analyze");
    layer.plan_lower_us = MeanUs(spans, "plan.lower");
    layer.plan_passes_us = MeanUs(spans, "plan.passes");
    layer.index_compile_us = MeanUs(spans, "index.compile");
    layer.index_accumulate_us = MeanUs(spans, "index.accumulate");
    layer.index_take_top_us = MeanUs(spans, "index.take_top");
    const double n = static_cast<double>(std::max<uint64_t>(1, replays));
    layer.index_matched_per_query = static_cast<double>(matched) / n;
    layer.index_kernel_runs_per_query = static_cast<double>(runs) / n;
    layer.index_prune_skip_ratio =
        skipped + scored > 0
            ? static_cast<double>(skipped) / static_cast<double>(skipped + scored)
            : 0.0;
    layer.core_shard_fragment_us = MeanUs(spans, "core.shard.fragment");
    layer.core_shard_fragment_max_over_mean = Mean(max_over_mean);
    layer.core_shard_gather_us = Mean(gather_us);
    // The router scatters inline, so its wall time holds the front half and
    // every shard's fragment; the rest is the fault boundary, merge and
    // Eq. 3 aggregation.
    const double wall_us = MeanUs(spans, "core.router_rank");
    const double staged_us = layer.text_query_analyze_us +
                             layer.plan_lower_us + layer.plan_passes_us +
                             kShards * layer.core_shard_fragment_us;
    layer.core_rank_unattributed_frac =
        wall_us > 0 ? (wall_us - staged_us) / wall_us : 0.0;
    // The 150 needs fit in the shard plan caches; the loaded shards keep
    // their own caches, so the ratio is taken on the replay shards.
    uint64_t hits = 0, lookups = 0;
    for (const core::FinderShard& shard : shards.value()) {
      const plan::PlanCache::Stats st = shard.finder.plan_cache_stats();
      hits += st.hits;
      lookups += st.hits + st.misses;
    }
    layer.plan_cache_hit_ratio =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0;
    const double untraced_p50 = Percentile(untraced.latency_ms, 0.5);
    layer.obs_trace_overhead_ratio =
        untraced_p50 > 0 ? Percentile(loop.latency_ms, 0.5) / untraced_p50
                         : 0.0;
    loop.attempted += untraced.attempted;
    loop.failed += untraced.failed;
  }
  result.attempted += loop.attempted;
  result.FailN(loop.failed, "niche_sharded: router rank errored or came back "
                            "incomplete (%llu incomplete)",
               static_cast<unsigned long long>(incomplete.load()));

  // Correctness, outside the measured window: every kept sharded ranking
  // must match the unsharded finder bit for bit.
  for (const auto& [seq, served] : samples) {
    Result<core::RankedExperts> want = finder.Rank(request_for(seq));
    if (!want.ok() || !SameRanking(want.value(), served)) {
      result.Fail("niche_sharded: sharded ranking of request %llu differs "
                  "from the unsharded finder",
                  static_cast<unsigned long long>(seq));
    }
  }
  std::vector<core::RankedExperts> eval_rankings;
  for (const synth::ExpertiseNeed& q : s->w->world.queries) {
    core::RankRequest request;
    request.text = q.text;
    Result<core::ShardedRankResult> r = router.Rank(request);
    if (!r.ok() || !r.value().complete) {
      result.Fail("niche_sharded: evaluation query %d failed", q.id);
      continue;
    }
    eval_rankings.push_back(std::move(r).value().ranked);
  }
  std::printf("# niche_sharded: %zu sharded rankings checked against the "
              "unsharded finder\n",
              samples.size());

  if (opt.trace) {
    Emit(layer, &result);
    if (!tracer.Write(opt.work_dir + "/spans_niche_sharded.jsonl")) {
      result.Fail("niche_sharded: could not write the span file");
    }
    return result;
  }
  e2e.setup_s = Percentile(setup_s, 0.5);
  e2e.rank_qps = loop.Qps();
  e2e.rank_p50_ms = Percentile(loop.latency_ms, 0.5);
  // The median of the slices' p99s: a stretch of host stalls in one slice
  // moves it no more than one slice.
  e2e.rank_p99_ms = Percentile(loop.slice_p99_ms, 0.5);
  e2e.ingest_docs_per_s =
      static_cast<double>(finder.corpus().document_count()) /
      Percentile(create_s, 0.5);
  e2e.eval_map = EvalMap(s->w->world, eval_rankings);
  std::printf("# niche_sharded: %zu measured ranks\n", loop.latency_ms.size());
  Emit(e2e, &result);
  return result;
}

}  // namespace crowdbench
