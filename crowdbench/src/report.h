// The metric sets every workload reports. A workload fills what it
// measures; fields a workload does not exercise keep their neutral value,
// so every run prints the full set (the end-to-end set untraced, the
// per-layer set traced) under the names and units BENCHMARK.json lists.
#ifndef CROWDBENCH_REPORT_H_
#define CROWDBENCH_REPORT_H_

#include <map>
#include <string>

#include "common.h"
#include "setup.h"
#include "trace.h"

namespace crowdbench {

struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double rank_qps = 0.0;
  double rank_p50_ms = 0.0;
  double rank_p99_ms = 0.0;
  double ingest_docs_per_s = 0.0;
  double eval_map = 0.0;
};

struct PerLayer {
  double synth_generate_ms = 0.0;
  double platform_analyze_ms = 0.0;
  double platform_docs_per_s = 0.0;
  AnalysisReplay analysis;
  double core_create_ms = 0.0;
  double core_partition_ms = 0.0;
  double io_shard_save_ms = 0.0;
  double io_shard_load_ms = 0.0;
  double io_snapshot_bytes = 0.0;
  double text_query_analyze_us = 0.0;
  double plan_lower_us = 0.0;
  double plan_passes_us = 0.0;
  double plan_cache_hit_ratio = 0.0;
  double index_compile_us = 0.0;
  double index_accumulate_us = 0.0;
  double index_take_top_us = 0.0;
  double index_matched_per_query = 0.0;
  double index_kernel_runs_per_query = 0.0;
  double index_prune_skip_ratio = 0.0;
  double core_aggregate_us = 0.0;
  double core_rank_unattributed_frac = 0.0;
  double core_shard_fragment_us = 0.0;
  double core_shard_fragment_max_over_mean = 0.0;
  double core_shard_gather_us = 0.0;
  double core_writer_apply_us = 0.0;
  double io_log_batch_us = 0.0;
  double io_segment_bytes_per_doc = 0.0;
  double core_writer_compact_ms = 0.0;
  double index_delta_docs_at_read = 0.0;
  double index_tombstones_at_read = 0.0;
  double core_rank_in_compaction_p99_ms = 0.0;
  double bench_open_loop_late_p99_ms = 0.0;
  double obs_trace_overhead_ratio = 0.0;
};

void Emit(const EndToEnd& m, RunResult* out);
void Emit(const PerLayer& m, RunResult* out);

/// Mean duration (µs) of the spans named `name`; 0 when there are none.
double MeanUs(const std::map<std::string, SpanSummary>& spans,
              const std::string& name);

/// Fills the set-up fields of `layer` from the set-up spans.
void FillSetupLayers(const std::map<std::string, SpanSummary>& spans,
                     size_t analyzed_nodes, PerLayer* layer);

}  // namespace crowdbench

#endif  // CROWDBENCH_REPORT_H_
