#include "setup.h"

#include <cstdio>

#include "common/thread_pool.h"
#include "platform/resource_extractor.h"

namespace crowdbench {

using namespace crowdex;

std::unique_ptr<ServingWorld> BuildServingWorld(
    const synth::WorldConfig& config, int threads, Tracer* tracer,
    SetupTimes* times) {
  auto w = std::make_unique<ServingWorld>();
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "synth.generate");
    w->world = synth::GenerateWorld(config);
  }
  times->generate_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "platform.analyze");
    core::AnalyzeOptions options;
    options.thread_count = threads;
    w->analyzed = core::AnalyzeWorld(&w->world, options);
  }
  times->analyze_s = SecondsSince(t0);
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core.create");
    common::ThreadPool pool(threads);
    Result<core::ExpertFinder> finder = core::ExpertFinder::Create(
        &w->analyzed, core::ExpertFinderConfig{}, nullptr,
        core::RuntimeContext{&pool, nullptr});
    if (!finder.ok()) {
      std::fprintf(stderr, "FAIL: ExpertFinder::Create: %s\n",
                   finder.status().ToString().c_str());
      return nullptr;
    }
    w->finder.emplace(std::move(finder).value());
  }
  times->create_s = SecondsSince(t0);
  return w;
}

AnalysisReplay ReplayAnalysis(const ServingWorld& w, uint64_t seed,
                              size_t sample, Tracer* tracer) {
  const platform::ResourceExtractor& extractor = *w.analyzed.extractor;
  const text::TextPipeline& pipeline = extractor.pipeline();
  AnalysisReplay out;
  ScopedSpan root(tracer, "platform.analyze_replay");
  const uint64_t parent = root.id();
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < sample; ++i) {
    const auto& net = w.world.networks[next() % platform::kNumPlatforms];
    const size_t n = next() % net.node_text.size();
    ++out.nodes;
    std::string text = net.node_text[n];
    if (!net.node_url[n].empty() && extractor.enrich_urls()) {
      ScopedSpan span(tracer, "platform.enrich", parent);
      Result<std::string> page = w.world.web.Fetch(net.node_url[n]);
      if (page.ok()) {
        if (!text.empty()) text += ' ';
        text += page.value();
      }
      out.enrich_ms += span.End() / 1e3;
    }
    if (text.empty()) continue;
    text::Language lang;
    {
      ScopedSpan span(tracer, "text.langid", parent);
      lang = pipeline.language_identifier().Identify(text);
      out.langid_ms += span.End() / 1e3;
    }
    if (lang != text::Language::kEnglish) continue;
    // Entity recognition runs on the raw tokens, term extraction on a
    // second tokenization — the order the analyzer itself uses.
    std::vector<std::string> raw_tokens;
    {
      ScopedSpan span(tracer, "text.tokenize", parent);
      raw_tokens = pipeline.tokenizer().Tokenize(text);
      out.tokenize_ms += span.End() / 1e3;
    }
    {
      ScopedSpan span(tracer, "entity.annotate", parent);
      out.annotations += extractor.annotator().Annotate(raw_tokens).size();
      out.annotate_ms += span.End() / 1e3;
    }
    std::vector<std::string> tokens;
    {
      ScopedSpan span(tracer, "text.tokenize", parent);
      tokens = pipeline.tokenizer().Tokenize(text);
      out.tokenize_ms += span.End() / 1e3;
    }
    out.tokens += tokens.size();
    {
      ScopedSpan span(tracer, "text.stopword", parent);
      tokens = pipeline.stopwords().Filter(tokens);
      out.stopword_ms += span.End() / 1e3;
    }
    {
      ScopedSpan span(tracer, "text.stem", parent);
      tokens = pipeline.stemmer().StemAll(tokens);
      out.stem_ms += span.End() / 1e3;
    }
  }
  return out;
}

}  // namespace crowdbench
