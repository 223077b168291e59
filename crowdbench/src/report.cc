#include "report.h"

namespace crowdbench {

void Emit(const EndToEnd& m, RunResult* out) {
  out->Add("setup_s", m.setup_s, "s");
  out->Add("peak_rss_mb", m.peak_rss_mb, "MiB");
  out->Add("rank_qps", m.rank_qps, "1/s");
  out->Add("rank_p50_ms", m.rank_p50_ms, "ms");
  out->Add("rank_p99_ms", m.rank_p99_ms, "ms");
  out->Add("ingest_docs_per_s", m.ingest_docs_per_s, "1/s");
  out->Add("eval_map", m.eval_map, "ratio");
}

void Emit(const PerLayer& m, RunResult* out) {
  out->Add("synth.generate_ms", m.synth_generate_ms, "ms");
  out->Add("platform.analyze_ms", m.platform_analyze_ms, "ms");
  out->Add("platform.docs_per_s", m.platform_docs_per_s, "1/s");
  const AnalysisReplay& a = m.analysis;
  out->Add("platform.enrich_ms", a.enrich_ms, "ms");
  out->Add("text.langid_ms", a.langid_ms, "ms");
  out->Add("text.tokenize_ms", a.tokenize_ms, "ms");
  out->Add("text.stopword_ms", a.stopword_ms, "ms");
  out->Add("text.stem_ms", a.stem_ms, "ms");
  out->Add("entity.annotate_ms", a.annotate_ms, "ms");
  const double sum = a.enrich_ms + a.langid_ms + a.tokenize_ms +
                     a.stopword_ms + a.stem_ms + a.annotate_ms;
  auto share = [sum](double v) { return sum > 0 ? v / sum : 0.0; };
  out->Add("platform.enrich_share", share(a.enrich_ms), "ratio");
  out->Add("text.langid_share", share(a.langid_ms), "ratio");
  out->Add("text.tokenize_share", share(a.tokenize_ms), "ratio");
  out->Add("text.stopword_share", share(a.stopword_ms), "ratio");
  out->Add("text.stem_share", share(a.stem_ms), "ratio");
  out->Add("entity.annotate_share", share(a.annotate_ms), "ratio");
  out->Add("text.tokens", static_cast<double>(a.tokens), "count");
  out->Add("entity.annotations", static_cast<double>(a.annotations), "count");
  out->Add("core.create_ms", m.core_create_ms, "ms");
  out->Add("core.partition_ms", m.core_partition_ms, "ms");
  out->Add("io.shard_save_ms", m.io_shard_save_ms, "ms");
  out->Add("io.shard_load_ms", m.io_shard_load_ms, "ms");
  out->Add("io.snapshot_bytes", m.io_snapshot_bytes, "bytes");
  out->Add("text.query_analyze_us", m.text_query_analyze_us, "us");
  out->Add("plan.lower_us", m.plan_lower_us, "us");
  out->Add("plan.passes_us", m.plan_passes_us, "us");
  out->Add("plan.cache_hit_ratio", m.plan_cache_hit_ratio, "ratio");
  out->Add("index.compile_us", m.index_compile_us, "us");
  out->Add("index.accumulate_us", m.index_accumulate_us, "us");
  out->Add("index.take_top_us", m.index_take_top_us, "us");
  out->Add("index.matched_per_query", m.index_matched_per_query, "count");
  out->Add("index.kernel_runs_per_query", m.index_kernel_runs_per_query,
           "count");
  out->Add("index.prune_skip_ratio", m.index_prune_skip_ratio, "ratio");
  out->Add("core.aggregate_us", m.core_aggregate_us, "us");
  out->Add("core.rank_unattributed_frac", m.core_rank_unattributed_frac,
           "ratio");
  out->Add("core.shard.fragment_us", m.core_shard_fragment_us, "us");
  out->Add("core.shard.fragment_max_over_mean",
           m.core_shard_fragment_max_over_mean, "ratio");
  out->Add("core.shard.gather_us", m.core_shard_gather_us, "us");
  out->Add("core.writer.apply_us", m.core_writer_apply_us, "us");
  out->Add("io.log_batch_us", m.io_log_batch_us, "us");
  out->Add("io.segment_bytes_per_doc", m.io_segment_bytes_per_doc, "bytes");
  out->Add("core.writer.compact_ms", m.core_writer_compact_ms, "ms");
  out->Add("index.delta_docs_at_read", m.index_delta_docs_at_read, "count");
  out->Add("index.tombstones_at_read", m.index_tombstones_at_read, "count");
  out->Add("core.rank_in_compaction_p99_ms", m.core_rank_in_compaction_p99_ms,
           "ms");
  out->Add("bench.open_loop_late_p99_ms", m.bench_open_loop_late_p99_ms, "ms");
  out->Add("obs.trace_overhead_ratio", m.obs_trace_overhead_ratio, "ratio");
}

double MeanUs(const std::map<std::string, SpanSummary>& spans,
              const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.MeanUs();
}

void FillSetupLayers(const std::map<std::string, SpanSummary>& spans,
                     size_t analyzed_nodes, PerLayer* layer) {
  layer->synth_generate_ms = MeanUs(spans, "synth.generate") / 1e3;
  layer->platform_analyze_ms = MeanUs(spans, "platform.analyze") / 1e3;
  layer->platform_docs_per_s =
      layer->platform_analyze_ms > 0
          ? static_cast<double>(analyzed_nodes) /
                (layer->platform_analyze_ms / 1e3)
          : 0.0;
  layer->core_create_ms = MeanUs(spans, "core.create") / 1e3;
}

}  // namespace crowdbench
