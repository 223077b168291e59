// Set-up shared by the workloads: generate the synthetic world, run the
// Fig. 4 analysis over it, and build the default-configured finder — every
// run pays all of it (no analyzed-corpus cache). Also the traced replay of
// the analysis stages over a seeded node sample.
#ifndef CROWDBENCH_SETUP_H_
#define CROWDBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/analyzed_world.h"
#include "core/expert_finder.h"
#include "synth/world.h"
#include "trace.h"

namespace crowdbench {

/// A generated and analyzed world plus the finder serving it. Not movable:
/// `analyzed` and `finder` point into `world`.
struct ServingWorld {
  crowdex::synth::SyntheticWorld world;
  crowdex::core::AnalyzedWorld analyzed;
  std::optional<crowdex::core::ExpertFinder> finder;
};

/// Wall time of each set-up stage, in seconds.
struct SetupTimes {
  double generate_s = 0.0;
  double analyze_s = 0.0;
  double create_s = 0.0;
};

/// Generates the world for `config`, analyzes it on `threads` threads and
/// builds the finder with the default `ExpertFinderConfig` (bulk add and
/// freeze across the same number of threads). Spans `synth.generate`,
/// `platform.analyze` and `core.create` go to `tracer` (may be null).
/// Returns null (after printing why) when the finder cannot be built.
std::unique_ptr<ServingWorld> BuildServingWorld(
    const crowdex::synth::WorldConfig& config, int threads, Tracer* tracer,
    SetupTimes* times);

/// Time and work of the analysis stages, replayed call by call over a node
/// sample.
struct AnalysisReplay {
  double enrich_ms = 0.0;
  double langid_ms = 0.0;
  double tokenize_ms = 0.0;
  double stopword_ms = 0.0;
  double stem_ms = 0.0;
  double annotate_ms = 0.0;
  uint64_t nodes = 0;
  uint64_t tokens = 0;
  uint64_t annotations = 0;
};

/// Replays, over `sample` seeded nodes of `w`, the steps the analyzer runs
/// per resource: the `WebPageStore` lookup, `LanguageIdentifier::Identify`,
/// `Tokenizer::Tokenize` (which sanitizes), `StopwordFilter::Filter`,
/// `PorterStemmer::StemAll` and `EntityAnnotator::Annotate`, each timed as
/// a span under one `platform.analyze_replay` root. `tracer` must be
/// non-null: the stage times are the span durations.
AnalysisReplay ReplayAnalysis(const ServingWorld& w, uint64_t seed,
                              size_t sample, Tracer* tracer);

}  // namespace crowdbench

#endif  // CROWDBENCH_SETUP_H_
