// Cold-start benchmark for versioned serving snapshots. Two ways to reach
// a serving-ready ExpertFinder from the same corpus:
//
//   build — the full pipeline: analyze every resource, build + freeze the
//           corpus index, walk the social graphs for the association
//           tables (world generation is excluded — both arms start from
//           the same in-memory corpus);
//   load  — `ExpertFinder::FromSnapshotFile` on the snapshot the built
//           finder saved: a handful of checksummed block reads, no
//           per-posting work.
//
// The build arm's analysis is then profiled per stage: a sequential replay
// of the analyzer's own per-resource path over every node (URL enrichment,
// sanitize + language ID, tokenize + stop words, stemming, entity
// annotation), each stage timed on its own and reported with its docs/s.
// The replay must reproduce every analyzed node's terms and entity count,
// so it times exactly the work the analyzer does.
//
// The restored finder is then verified bit for bit against the builder:
// every query of the evaluation set, served sequentially, through
// `RankBatch` at N threads, and through a `SnapshotManager` hot swap, must
// produce identical rankings — any divergence makes the binary exit
// non-zero, so the ctest smoke run doubles as a round-trip gate. Startup
// times, snapshot size, and the build/load speedup land in
// BENCH_coldstart.json.
//
// Environment knobs: CROWDEX_BENCH_SCALE (default 0.05), CROWDEX_THREADS
// (batch worker count, default max(4, hardware_concurrency)),
// CROWDEX_BENCH_JSON (output path, default BENCH_coldstart.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/analyzed_world.h"
#include "index/kernels/kernels.h"
#include "core/corpus_index.h"
#include "core/expert_finder.h"
#include "core/serving.h"
#include "obs/metrics.h"
#include "platform/resource_extractor.h"
#include "synth/world.h"
#include "text/pipeline.h"

namespace {

using namespace crowdex;

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atof(v);
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

double MsSince(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool SameRanking(const core::RankedExperts& a, const core::RankedExperts& b) {
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

// Canonical-API shim for workload loops: the `Rank(ExpertiseNeed)` wrapper
// is deprecated (DESIGN.md, deprecations); override-free requests cannot
// fail, so .value() is safe.
core::RankedExperts RankQuery(const core::ExpertFinder& finder,
                              const synth::ExpertiseNeed& query) {
  core::RankRequest request;
  request.text = query.text;
  return finder.Rank(request).value();
}

// One analysis stage of the per-stage profile.
struct Stage {
  const char* name;
  double ms = 0.0;
  size_t docs = 0;  // Resources that reached this stage.

  double DocsPerSecond() const {
    return ms > 0.0 ? static_cast<double>(docs) / (ms / 1e3) : 0.0;
  }
};

struct StageProfile {
  Stage enrich{"enrich"};                        // URL content extraction.
  Stage langid{"langid"};                        // Sanitize + identify.
  Stage tokenize{"tokenize_stopwords"};          // Tokenize + stop words.
  Stage stem{"stem"};                            // Porter stemming.
  Stage annotate{"annotate"};                    // Entity recognition.
  double replay_ms = 0.0;
};

// Replays `AnalyzeText` (after `AnalyzeOneNode`'s URL enrichment) for every
// node of `world`, timing each stage. Returns false if any replayed node
// disagrees with `analyzed` — the replay must do the analyzer's own work.
bool ProfileStages(const synth::SyntheticWorld& world,
                   const core::AnalyzedWorld& analyzed, StageProfile* out) {
  using Clock = std::chrono::steady_clock;
  const platform::ResourceExtractor& extractor = *analyzed.extractor;
  const text::TextPipeline& pipeline = extractor.pipeline();
  const text::TextPipelineOptions& options = pipeline.options();
  auto lap = [](Clock::time_point* t, Stage* stage) {
    const Clock::time_point now = Clock::now();
    stage->ms += std::chrono::duration<double, std::milli>(now - *t).count();
    ++stage->docs;
    *t = now;
  };
  const auto r0 = Clock::now();
  for (size_t p = 0; p < world.networks.size(); ++p) {
    const platform::PlatformNetwork& network = world.networks[p];
    for (size_t n = 0; n < network.node_text.size(); ++n) {
      Clock::time_point t = Clock::now();
      std::string text = network.node_text[n];
      if (!network.node_url[n].empty() && extractor.enrich_urls()) {
        Result<std::string> page = world.web.Fetch(network.node_url[n]);
        if (page.ok()) {
          if (!text.empty()) text += ' ';
          text += page.value();
        }
        lap(&t, &out->enrich);
      }
      if (text.empty()) continue;
      const std::string sanitized = pipeline.tokenizer().Sanitize(text);
      const bool english = pipeline.IdentifyLanguage(text, sanitized) ==
                           text::Language::kEnglish;
      lap(&t, &out->langid);
      const platform::AnalyzedNode& want =
          analyzed.corpora[p].nodes[n];
      if (english != want.english) return false;
      if (!english) continue;

      const std::vector<std::string> raw_tokens =
          pipeline.tokenizer().TokenizeSanitized(sanitized);
      std::vector<std::string> terms;
      terms.reserve(raw_tokens.size());
      for (const std::string& token : raw_tokens) {
        if (!options.remove_stopwords ||
            !pipeline.stopwords().IsStopword(token)) {
          terms.push_back(token);
        }
      }
      lap(&t, &out->tokenize);
      if (options.stem) {
        for (std::string& term : terms) term = pipeline.stemmer().Stem(term);
      }
      lap(&t, &out->stem);
      std::vector<entity::Annotation> annotations =
          extractor.annotator().Annotate(raw_tokens);
      std::vector<entity::EntityId> entities;
      for (const entity::Annotation& a : annotations) {
        entities.push_back(a.entity);
      }
      std::sort(entities.begin(), entities.end());
      entities.erase(std::unique(entities.begin(), entities.end()),
                     entities.end());
      lap(&t, &out->annotate);
      if (terms != want.terms || entities.size() != want.entities.size()) {
        return false;
      }
    }
  }
  out->replay_ms = MsSince(r0);
  return true;
}

void WriteStage(std::FILE* out, const Stage& stage, bool last) {
  std::fprintf(out,
               "    \"%s\": {\"ms\": %.2f, \"docs\": %zu, "
               "\"docs_per_s\": %.0f}%s\n",
               stage.name, stage.ms, stage.docs, stage.DocsPerSecond(),
               last ? "" : ",");
}

bool Run(const std::string& json_path) {
  const double scale = EnvDouble("CROWDEX_BENCH_SCALE", 0.05);
  const int threads =
      EnvInt("CROWDEX_THREADS",
             std::max(4, common::ThreadPool::HardwareThreads()));
  constexpr uint64_t kEpoch = 1;
  constexpr uint64_t kFingerprint = 0xC0FFEEu;

  std::printf("crowdex coldstart: scale=%.3f threads=%d\n", scale, threads);

  synth::WorldConfig cfg;
  cfg.scale = scale;
  const auto w0 = std::chrono::steady_clock::now();
  synth::SyntheticWorld world = synth::GenerateWorld(cfg);
  std::printf("world:     %zu nodes generated in %.1fms (excluded from both "
              "arms)\n",
              world.TotalNodes(), MsSince(w0));

  // Arm 1: the full analyze -> index -> freeze -> associations pipeline.
  const auto b0 = std::chrono::steady_clock::now();
  core::AnalyzedWorld analyzed = core::AnalyzeWorld(&world);
  const double analyze_ms = MsSince(b0);
  const auto b1 = std::chrono::steady_clock::now();
  core::ExpertFinder built =
      core::ExpertFinder::Create(&analyzed, core::ExpertFinderConfig{})
          .value();
  const double finder_ms = MsSince(b1);
  const double build_ms = analyze_ms + finder_ms;
  std::printf("build:     %8.1fms  (analyze %.1fms, index+associations "
              "%.1fms)\n",
              build_ms, analyze_ms, finder_ms);

  StageProfile stages;
  if (!ProfileStages(world, analyzed, &stages)) {
    std::fprintf(stderr, "FAIL: per-stage replay diverged from the "
                         "analyzed corpus\n");
    return false;
  }
  std::printf("stages:    sequential replay %.1fms\n", stages.replay_ms);
  for (const Stage* stage : {&stages.enrich, &stages.langid, &stages.tokenize,
                             &stages.stem, &stages.annotate}) {
    std::printf("  %-20s %8.1fms  %7zu docs  %9.0f docs/s\n", stage->name,
                stage->ms, stage->docs, stage->DocsPerSecond());
  }

  // Save the serving state once.
  const std::string snap_path =
      (std::filesystem::temp_directory_path() / "crowdex_coldstart.snap")
          .string();
  const auto s0 = std::chrono::steady_clock::now();
  Status saved = built.SaveSnapshot(kEpoch, kFingerprint, snap_path);
  const double save_ms = MsSince(s0);
  if (!saved.ok()) {
    std::fprintf(stderr, "FAIL: SaveSnapshot: %s\n",
                 saved.ToString().c_str());
    return false;
  }
  std::error_code ec;
  const uintmax_t snapshot_bytes = std::filesystem::file_size(snap_path, ec);
  std::printf("save:      %8.1fms  (%.1f MiB)\n", save_ms,
              ec ? 0.0 : static_cast<double>(snapshot_bytes) / (1024 * 1024));

  // Arm 2: cold start from the snapshot. The query analyzer is the only
  // piece rebuilt in-process (it derives from the static knowledge base,
  // not from the corpus).
  const auto l0 = std::chrono::steady_clock::now();
  auto extractor = std::make_unique<platform::ResourceExtractor>(
      &world.kb, platform::ExtractorOptions{});
  Result<core::ExpertFinder> restored = core::ExpertFinder::FromSnapshotFile(
      snap_path, kFingerprint, extractor.get());
  const double load_ms = MsSince(l0);
  if (!restored.ok()) {
    std::fprintf(stderr, "FAIL: FromSnapshotFile: %s\n",
                 restored.status().ToString().c_str());
    return false;
  }
  const core::ExpertFinder& loaded = restored.value();
  const double speedup = load_ms > 0.0 ? build_ms / load_ms : 0.0;
  std::printf("load:      %8.1fms  (%.1fx faster startup than build)\n",
              load_ms, speedup);

  // Gate 1: the restored finder must rank every query bit-identically.
  std::vector<core::RankedExperts> want;
  want.reserve(world.queries.size());
  for (const auto& q : world.queries) want.push_back(RankQuery(built, q));
  for (size_t i = 0; i < world.queries.size(); ++i) {
    if (!SameRanking(want[i], RankQuery(loaded, world.queries[i]))) {
      std::fprintf(stderr,
                   "FAIL: restored ranking diverged at query %zu\n", i);
      return false;
    }
  }

  // Gate 2: the same through RankBatch at 1 and N threads.
  common::ThreadPool pool(threads);
  const std::vector<core::RankedExperts> batch_1t =
      loaded.RankBatch(world.queries);
  const std::vector<core::RankedExperts> batch_nt =
      loaded.RankBatch(world.queries, core::RuntimeContext{&pool, nullptr});
  for (size_t i = 0; i < world.queries.size(); ++i) {
    if (!SameRanking(want[i], batch_1t[i]) ||
        !SameRanking(want[i], batch_nt[i])) {
      std::fprintf(stderr,
                   "FAIL: restored batch ranking diverged at query %zu\n", i);
      return false;
    }
  }

  // Gate 3: served through a SnapshotManager swap, before and after a
  // second swap of the same epoch (swap while serving is the concurrency
  // test's job; here the swap path itself must not perturb rankings).
  obs::MetricsRegistry metrics;
  core::SnapshotManager manager(core::RuntimeContext{nullptr, &metrics});
  manager.Swap(std::make_shared<const core::ServingSnapshot>(
      std::move(restored).value()));
  if (manager.active_epoch() != kEpoch) {
    std::fprintf(stderr, "FAIL: manager serves epoch %llu, want %llu\n",
                 static_cast<unsigned long long>(manager.active_epoch()),
                 static_cast<unsigned long long>(kEpoch));
    return false;
  }
  for (size_t i = 0; i < world.queries.size(); ++i) {
    core::RankRequest req;
    req.text = world.queries[i].text;
    Result<core::RankedExperts> r = manager.Rank(req);
    if (!r.ok() || !SameRanking(want[i], r.value())) {
      std::fprintf(stderr,
                   "FAIL: manager-served ranking diverged at query %zu\n", i);
      return false;
    }
  }
  std::printf("determinism: save -> load -> swap bit-identical for all %zu "
              "queries (1 and %d threads)\n",
              world.queries.size(), threads);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"crowdex-bench-coldstart-v2\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %d,\n",
               common::ThreadPool::HardwareThreads());
  std::fprintf(out, "  \"cpu_features\": \"%s\",\n",
               common::CpuFeatureString().c_str());
  std::fprintf(out, "  \"kernel\": \"%s\",\n",
               index::kernels::Active().name);
  std::fprintf(out, "  \"scale\": %.6f,\n", scale);
  std::fprintf(out, "  \"indexed_docs\": %zu,\n",
               built.corpus().document_count());
  std::fprintf(out, "  \"queries\": %zu,\n", world.queries.size());
  std::fprintf(out, "  \"threads\": %d,\n", threads);
  std::fprintf(out, "  \"build_ms\": %.2f,\n", build_ms);
  std::fprintf(out, "  \"analyze_ms\": %.2f,\n", analyze_ms);
  std::fprintf(out, "  \"analyze_stages\": {\n");
  std::fprintf(out, "    \"threads\": 1,\n");
  std::fprintf(out, "    \"replay_ms\": %.2f,\n", stages.replay_ms);
  WriteStage(out, stages.enrich, false);
  WriteStage(out, stages.langid, false);
  WriteStage(out, stages.tokenize, false);
  WriteStage(out, stages.stem, false);
  WriteStage(out, stages.annotate, true);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"index_and_associations_ms\": %.2f,\n", finder_ms);
  std::fprintf(out, "  \"snapshot_save_ms\": %.2f,\n", save_ms);
  std::fprintf(out, "  \"snapshot_bytes\": %llu,\n",
               static_cast<unsigned long long>(ec ? 0 : snapshot_bytes));
  std::fprintf(out, "  \"snapshot_load_ms\": %.2f,\n", load_ms);
  std::fprintf(out, "  \"startup_speedup\": %.2f,\n", speedup);
  std::fprintf(out, "  \"swap_total\": %llu,\n",
               static_cast<unsigned long long>(
                   metrics.counter("snapshot.swap_total")->Value()));
  std::fprintf(out, "  \"active_epoch\": %lld,\n",
               static_cast<long long>(
                   metrics.gauge("snapshot.active_epoch")->Value()));
  std::fprintf(out, "  \"deterministic\": true\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  std::remove(snap_path.c_str());
  return true;
}

}  // namespace

int main() {
  const char* json_env = std::getenv("CROWDEX_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_coldstart.json";
  return Run(json_path) ? 0 : 1;
}
