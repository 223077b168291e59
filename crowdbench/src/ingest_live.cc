// ingest_live: writes beside reads on a single index. One writer thread
// replays the seeded mutation stream closed loop — `IndexWriter::LogBatch`
// to a segment file, then `Apply` — and every `kCompactEvery` batches
// calls `Compact` on a 2-thread pool. One reader thread ranks query_mix
// style needs open loop at a fixed rate; each read is timed from its
// scheduled send time, so a stall behind the writer lock or a compaction
// shows in the tail.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <shared_mutex>
#include <thread>

#include "common/thread_pool.h"
#include "core/index_writer.h"
#include "inputs.h"
#include "report.h"
#include "setup.h"
#include "workloads.h"

namespace crowdbench {

using namespace crowdex;

namespace {

constexpr int kCompactThreads = 2;
constexpr size_t kCompactEvery = 512;
constexpr double kReadsPerSecond = 100.0;
constexpr size_t kPoolSize = 4000;
constexpr double kZipfExponent = 0.6;
constexpr size_t kReadStreamLength = size_t{1} << 16;
/// Needs whose rankings are compared with a from-scratch rebuild.
constexpr size_t kCheckNeeds = 60;
constexpr size_t kReplayNodes = 2000;

struct IngestSetup {
  std::unique_ptr<ServingWorld> w;
  std::optional<core::IndexWriter> writer;
};

std::unique_ptr<IngestSetup> SetUp(const synth::WorldConfig& config,
                                   const Options& opt, Tracer* tracer,
                                   SetupTimes* times, RunResult* result) {
  auto s = std::make_unique<IngestSetup>();
  s->w = BuildServingWorld(config, opt.nproc, tracer, times);
  if (s->w == nullptr) {
    result->Fail("ingest_live: set-up failed");
    return nullptr;
  }
  {
    ScopedSpan span(tracer, "core.writer.attach");
    Result<core::IndexWriter> writer = core::IndexWriter::Attach(&*s->w->finder);
    if (!writer.ok()) {
      result->Fail("ingest_live: Attach: %s",
                   writer.status().ToString().c_str());
      return nullptr;
    }
    s->writer.emplace(std::move(writer).value());
  }
  return s;
}

/// What one measured phase of writer + reader produced.
struct Phase {
  std::vector<double> read_ms;
  std::vector<double> late_ms;
  std::vector<double> read_in_compaction_ms;
  uint64_t reads_attempted = 0;
  uint64_t reads_failed = 0;
  uint64_t write_failed = 0;
  uint64_t batches = 0;
  uint64_t docs = 0;
  double writer_s = 0.0;
  double window_s = 0.0;
  double delta_docs_sum = 0.0;
  double tombstones_sum = 0.0;
  /// Bytes of the segments logged (traced phases only).
  uint64_t segment_bytes = 0;
};

/// The mid-stream snapshot of the correctness check: the rankings served
/// through the delta fan-in after exactly `batches` committed batches.
struct Checkpoint {
  size_t batches = 0;
  std::vector<core::RankedExperts> rankings;
};

}  // namespace

RunResult RunIngestLive(const Options& opt) {
  RunResult result;
  const std::vector<std::string> pool = inputs::NeedPool(opt.seed, kPoolSize);
  const std::vector<uint32_t> reads = inputs::ZipfStream(
      opt.seed, pool.size(), kReadStreamLength, kZipfExponent);
  const synth::WorldConfig config =
      inputs::WorldConfigFor(opt.seed, inputs::kIngestScale);
  std::printf("# ingest_live: scale %.2f, compaction every %zu batches on %d "
              "threads, reads at %.0f/s open loop\n",
              config.scale, kCompactEvery, kCompactThreads, kReadsPerSecond);

  common::ThreadPool compact_pool(kCompactThreads);
  const std::string seg_dir = opt.work_dir + "/segments";
  Tracer tracer;
  Tracer* trace = opt.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::vector<double> create_s;
  std::unique_ptr<IngestSetup> s =
      RepeatSetUp(
          opt, &setup_s, &create_s,
          [&](SetupTimes* times) {
            return SetUp(config, opt, trace, times, &result);
          },
          [](const IngestSetup&) {});
  if (s == nullptr) return result;
  core::ExpertFinder& finder = *s->w->finder;
  core::IndexWriter& writer = *s->writer;
  std::error_code ec;
  std::filesystem::remove_all(seg_dir, ec);
  std::filesystem::create_directories(seg_dir, ec);
  std::printf("# ingest_live: %zu base resources\n",
              finder.corpus().document_count());

  // MAP is taken on the index as built, before any write: what the writer
  // commits depends on how fast it runs, so the final index is not a
  // function of the seed alone.
  std::vector<core::RankedExperts> eval_rankings;
  for (const synth::ExpertiseNeed& q : s->w->world.queries) {
    core::RankRequest request;
    request.text = q.text;
    Result<core::RankedExperts> r = finder.Rank(request);
    if (!r.ok()) {
      result.Fail("ingest_live: evaluation query %d errored", q.id);
      continue;
    }
    eval_rankings.push_back(std::move(r).value());
  }

  // The writer generates its batches as it goes; the reference rebuild
  // regenerates the same ones from the seed.
  inputs::MutationStream stream(opt.seed, config.num_candidates);
  inputs::TermCache terms(&s->w->analyzed.extractor->pipeline());
  size_t cursor = 0;  // batches committed so far
  std::optional<Checkpoint> checkpoint;
  auto check_requests = [&] {
    std::vector<core::RankRequest> out;
    for (size_t i = 0; i < kCheckNeeds; ++i) {
      core::RankRequest request;
      request.text = pool[reads[i * 7 % reads.size()]];
      out.push_back(std::move(request));
    }
    return out;
  };

  // One phase: the writer and the reader run for warm-up + `seconds`;
  // only what starts after the warm-up is measured.
  auto run_phase = [&](double seconds, Tracer* tr, bool take_checkpoint) {
    Phase ph;
    std::atomic<bool> measuring{false};
    std::atomic<bool> stop{false};
    // Written by the writer thread, read after it is joined.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> compactions;

    std::thread writer_thread([&] {
      Clock::time_point first{};
      Clock::time_point last{};
      bool started = false;
      while (!stop.load()) {
        if (!started && measuring.load()) {
          started = true;
          first = Clock::now();
        }
        const core::UpdateBatch batch =
            inputs::ToUpdateBatch(stream.Next(), &terms);
        char name[64];
        std::snprintf(name, sizeof(name), "/seg_%08zu.cxsg", cursor);
        const std::string path = seg_dir + name;
        Status st;
        {
          ScopedSpan span(tr, "io.log_batch");
          st = writer.LogBatch(batch, path);
        }
        if (tr != nullptr && started && st.ok()) {
          std::error_code size_ec;
          ph.segment_bytes += std::filesystem::file_size(path, size_ec);
        }
        if (st.ok()) {
          ScopedSpan span(tr, "core.writer.apply");
          st = writer.Apply(batch);
        }
        ++cursor;
        if (started) {
          ++ph.batches;
          ph.docs += batch.upserts.size();
        }
        if (!st.ok()) {
          ++ph.write_failed;
          std::fprintf(stderr, "FAIL: batch %zu: %s\n", cursor - 1,
                       st.ToString().c_str());
        }
        if (cursor % kCompactEvery == 0) {
          const Clock::time_point c0 = Clock::now();
          {
            ScopedSpan span(tr, "core.writer.compact");
            st = writer.Compact(core::RuntimeContext{&compact_pool, nullptr});
          }
          compactions.emplace_back(c0, Clock::now());
          if (!st.ok()) ++ph.write_failed;
        } else if (take_checkpoint && !checkpoint && started &&
                   SecondsSince(first) >= seconds / 2) {
          // Mid-stream: rank through the delta fan-in, exactly after
          // `cursor` committed batches (this thread is the only writer).
          Checkpoint cp;
          cp.batches = cursor;
          for (const core::RankRequest& request : check_requests()) {
            Result<core::RankedExperts> r = finder.Rank(request);
            cp.rankings.push_back(r.ok() ? std::move(r).value()
                                         : core::RankedExperts{});
          }
          checkpoint = std::move(cp);
        }
        last = Clock::now();
      }
      if (started) ph.writer_s = std::chrono::duration<double>(last - first).count();
    });

    std::vector<std::pair<Clock::time_point, Clock::time_point>> read_spans;
    std::thread reader_thread([&] {
      const Clock::time_point origin = Clock::now();
      for (uint64_t i = 0; !stop.load(); ++i) {
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(i / kReadsPerSecond));
        std::this_thread::sleep_until(due);
        if (stop.load()) break;
        const bool measured = measuring.load();
        const Clock::time_point sent = Clock::now();
        if (measured && tr != nullptr) {
          std::shared_lock<std::shared_mutex> lock(writer.delta().mu);
          ph.delta_docs_sum += static_cast<double>(writer.delta().delta_docs());
          ph.tombstones_sum +=
              static_cast<double>(writer.delta().tombstone_count());
        }
        core::RankRequest request;
        request.text = pool[reads[i % reads.size()]];
        Result<core::RankedExperts> r = Status::Internal("not run");
        {
          ScopedSpan span(tr, "core.rank", 0, i + 1);
          r = finder.Rank(request);
        }
        const Clock::time_point done = Clock::now();
        if (!measured) continue;
        ++ph.reads_attempted;
        if (!r.ok()) {
          ++ph.reads_failed;
          continue;
        }
        ph.read_ms.push_back(MsBetween(due, done));
        ph.late_ms.push_back(MsBetween(due, sent));
        read_spans.emplace_back(due, done);
      }
    });

    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    const Clock::time_point start = Clock::now();
    measuring.store(true);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    ph.window_s = SecondsSince(start);
    writer_thread.join();
    reader_thread.join();
    for (const auto& [from, to] : read_spans) {
      for (const auto& [c0, c1] : compactions) {
        if (from < c1 && c0 < to) {
          ph.read_in_compaction_ms.push_back(MsBetween(from, to));
          break;
        }
      }
    }
    return ph;
  };

  EndToEnd e2e;
  PerLayer layer;
  Phase phase;
  if (!opt.trace) {
    phase = run_phase(opt.seconds, nullptr, true);
    e2e.peak_rss_mb = PeakRssMb();
  } else {
    const Phase untraced = run_phase(opt.seconds / 2, nullptr, true);
    phase = run_phase(opt.seconds / 2, &tracer, false);
    layer.analysis = ReplayAnalysis(*s->w, opt.seed, kReplayNodes, &tracer);
    const auto spans = tracer.Summarize();
    FillSetupLayers(spans, s->w->world.TotalNodes(), &layer);
    layer.core_writer_apply_us = MeanUs(spans, "core.writer.apply");
    layer.io_log_batch_us = MeanUs(spans, "io.log_batch");
    layer.core_writer_compact_ms = MeanUs(spans, "core.writer.compact") / 1e3;
    layer.io_segment_bytes_per_doc =
        phase.docs > 0 ? static_cast<double>(phase.segment_bytes) /
                             static_cast<double>(phase.docs)
                       : 0.0;
    const double reads_measured =
        static_cast<double>(std::max<size_t>(1, phase.read_ms.size()));
    layer.index_delta_docs_at_read = phase.delta_docs_sum / reads_measured;
    layer.index_tombstones_at_read = phase.tombstones_sum / reads_measured;
    layer.core_rank_in_compaction_p99_ms =
        Percentile(phase.read_in_compaction_ms, 0.99);
    layer.bench_open_loop_late_p99_ms = Percentile(phase.late_ms, 0.99);
    const double untraced_p50 = Percentile(untraced.read_ms, 0.5);
    layer.obs_trace_overhead_ratio =
        untraced_p50 > 0 ? Percentile(phase.read_ms, 0.5) / untraced_p50 : 0.0;
    phase.reads_attempted += untraced.reads_attempted;
    phase.reads_failed += untraced.reads_failed;
    phase.write_failed += untraced.write_failed;
  }
  RemoveAndFlush(seg_dir);
  result.attempted += phase.reads_attempted + phase.batches;
  result.FailN(phase.reads_failed, "ingest_live: Rank returned an error");
  result.FailN(phase.write_failed, "ingest_live: a write step failed");
  std::printf("# ingest_live: %zu batches committed, %zu measured reads, %zu "
              "of them during a compaction\n",
              cursor, phase.read_ms.size(), phase.read_in_compaction_ms.size());

  // Correctness, outside the measured window: the mid-stream fan-in
  // rankings and the final compacted rankings must match a from-scratch
  // rebuild over exactly the committed batches.
  const std::vector<core::RankRequest> checks = check_requests();
  Status compacted = writer.Compact(core::RuntimeContext{&compact_pool, nullptr});
  if (!compacted.ok()) {
    result.Fail("ingest_live: final compaction: %s",
                compacted.ToString().c_str());
  }
  Result<core::ExpertFinder> reference = core::ExpertFinder::Create(
      &s->w->analyzed, core::ExpertFinderConfig{}, nullptr,
      core::RuntimeContext{&compact_pool, nullptr});
  if (!reference.ok()) {
    result.Fail("ingest_live: reference finder: %s",
                reference.status().ToString().c_str());
    return result;
  }
  Result<core::IndexWriter> ref_writer =
      core::IndexWriter::Attach(&reference.value());
  if (!ref_writer.ok()) {
    result.Fail("ingest_live: reference writer: %s",
                ref_writer.status().ToString().c_str());
    return result;
  }
  auto compare = [&](const char* when, const std::vector<core::RankedExperts>& got) {
    Status st = ref_writer.value().Compact(
        core::RuntimeContext{&compact_pool, nullptr});
    if (!st.ok()) {
      result.Fail("ingest_live: reference compaction: %s",
                  st.ToString().c_str());
      return;
    }
    for (size_t i = 0; i < checks.size(); ++i) {
      Result<core::RankedExperts> want = reference.value().Rank(checks[i]);
      if (!want.ok() || i >= got.size() || !SameRanking(want.value(), got[i])) {
        result.Fail("ingest_live: %s ranking of check need %zu differs from "
                    "the rebuild",
                    when, i);
      }
    }
  };
  inputs::MutationStream replay(opt.seed, config.num_candidates);
  inputs::TermCache replay_terms(&s->w->analyzed.extractor->pipeline());
  auto apply_next = [&](size_t i) {
    if (!ref_writer.value()
             .Apply(inputs::ToUpdateBatch(replay.Next(), &replay_terms))
             .ok()) {
      result.Fail("ingest_live: reference apply %zu failed", i);
    }
  };
  size_t replayed = 0;
  if (!checkpoint) {
    result.Fail("ingest_live: no mid-stream checkpoint was taken");
  } else {
    for (; replayed < checkpoint->batches; ++replayed) apply_next(replayed);
    compare("mid-stream fan-in", checkpoint->rankings);
  }
  for (; replayed < cursor; ++replayed) apply_next(replayed);
  std::vector<core::RankedExperts> final_rankings;
  for (const core::RankRequest& request : checks) {
    Result<core::RankedExperts> r = finder.Rank(request);
    final_rankings.push_back(r.ok() ? std::move(r).value()
                                    : core::RankedExperts{});
  }
  compare("compacted", final_rankings);
  std::printf("# ingest_live: mid-stream (after %zu batches) and compacted "
              "rankings checked against a rebuild\n",
              checkpoint ? checkpoint->batches : 0);

  if (opt.trace) {
    Emit(layer, &result);
    if (!tracer.Write(opt.work_dir + "/spans_ingest_live.jsonl")) {
      result.Fail("ingest_live: could not write the span file");
    }
    return result;
  }
  e2e.setup_s = Percentile(setup_s, 0.5);
  e2e.rank_qps = phase.window_s > 0
                     ? static_cast<double>(phase.read_ms.size()) / phase.window_s
                     : 0.0;
  e2e.rank_p50_ms = Percentile(phase.read_ms, 0.5);
  e2e.rank_p99_ms = Percentile(phase.read_ms, 0.99);
  e2e.ingest_docs_per_s =
      phase.writer_s > 0 ? static_cast<double>(phase.docs) / phase.writer_s : 0.0;
  e2e.eval_map = EvalMap(s->w->world, eval_rankings);
  Emit(e2e, &result);
  return result;
}

}  // namespace crowdbench
