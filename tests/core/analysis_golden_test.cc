// Byte-identity guard for the Fig. 4 analysis pipeline. The digests below
// were computed by the analyzer before it became single-pass (hash-map
// language identification, each resource sanitized four times and
// tokenized three times); any change to a term, entity, dScore bit,
// language decision or corpus statistic of these worlds changes them. They
// must hold at every thread count.
//
// The same suite checks the table-driven language identifier against the
// original hash-map formulation (tests/text/language_id_oracle.h) on every
// node text of those worlds, URL-enriched the way the analyzer enriches
// them, and on every input of the fuzz_robustness_test sweeps: decisions
// must be equal and scores within 1e-12.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/analyzed_world.h"
#include "io/corpus_cache.h"
#include "synth/world.h"
#include "text/fuzz_inputs.h"
#include "text/language_id.h"
#include "text/language_id_oracle.h"

namespace crowdex::core {
namespace {

struct PinnedDigest {
  uint64_t seed;
  uint64_t digest;
};

// `io::DigestAnalyzedCorpora` of `AnalyzeWorld` at scale 0.05.
constexpr PinnedDigest kPinned[] = {
    {1, 0x7ca4b061dec348b0ULL},
    {2, 0x91afb99ec6eb3946ULL},
    {3, 0x95c67b63e8200d56ULL},
    {20130318, 0x64b7693ccbb33dfeULL},
};
constexpr double kScale = 0.05;

uint64_t PinnedDigestFor(uint64_t seed) {
  for (const PinnedDigest& p : kPinned) {
    if (p.seed == seed) return p.digest;
  }
  ADD_FAILURE() << "no pinned digest for seed " << seed;
  return 0;
}

synth::SyntheticWorld World(uint64_t seed) {
  synth::WorldConfig cfg;
  cfg.scale = kScale;
  cfg.seed = seed;
  return synth::GenerateWorld(cfg);
}

/// Asserts the identifier under test and the oracle agree on `text`.
void ExpectAgrees(const text::LanguageIdentifier& id,
                  const text::oracle::HashMapLanguageIdentifier& oracle,
                  const std::string& text) {
  ASSERT_EQ(id.Identify(text), oracle.Identify(text)) << text;
  const auto got = id.Scores(text);
  const auto want = oracle.Scores(text);
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < got.size(); ++l) {
    ASSERT_EQ(got[l].first, want[l].first);
    ASSERT_NEAR(got[l].second, want[l].second, 1e-12) << text;
  }
}

/// Parameterized by world seed.
class AnalysisGoldenTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisGoldenTest, DigestMatchesPinnedValueAtOneAndFourThreads) {
  const synth::SyntheticWorld world = World(GetParam());
  for (int threads : {1, 4}) {
    AnalyzedWorld analyzed = AnalyzeWorld(&world, {.thread_count = threads});
    EXPECT_EQ(io::DigestAnalyzedCorpora(analyzed.corpora),
              PinnedDigestFor(GetParam()))
        << "seed " << GetParam() << ", " << threads << " threads";
  }
}

TEST_P(AnalysisGoldenTest, LanguageIdAgreesWithOracleOnEveryNodeText) {
  const synth::SyntheticWorld world = World(GetParam());
  const text::LanguageIdentifier id;
  const text::oracle::HashMapLanguageIdentifier oracle;
  size_t texts = 0;
  for (const platform::PlatformNetwork& network : world.networks) {
    for (size_t n = 0; n < network.node_text.size(); ++n) {
      std::string text = network.node_text[n];
      ExpectAgrees(id, oracle, text);
      ++texts;
      if (network.node_url[n].empty()) continue;
      Result<std::string> page = world.web.Fetch(network.node_url[n]);
      if (!page.ok()) continue;
      if (!text.empty()) text += ' ';
      text += page.value();
      ExpectAgrees(id, oracle, text);
      ++texts;
    }
  }
  EXPECT_GT(texts, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisGoldenTest,
                         ::testing::Values(1, 2, 3, 20130318));

TEST(LanguageIdOracleTest, AgreesOnEveryFuzzSweepInput) {
  const text::LanguageIdentifier id;
  const text::oracle::HashMapLanguageIdentifier oracle;
  for (uint64_t seed : fuzz::kSeeds) {
    for (const std::string& input : fuzz::AllSweepInputs(seed)) {
      ExpectAgrees(id, oracle, input);
    }
  }
}

}  // namespace
}  // namespace crowdex::core
