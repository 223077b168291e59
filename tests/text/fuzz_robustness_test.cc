// Robustness sweeps: the text pipeline and entity annotator must handle
// arbitrary byte soup without crashing or violating their output
// invariants — social-media text is adversarially messy.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "entity/annotator.h"
#include "text/fuzz_inputs.h"
#include "text/language_id.h"
#include "text/pipeline.h"

namespace crowdex {
namespace {

using fuzz::RandomAsciiSoup;
using fuzz::RandomBytes;

class FuzzRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzRobustness, TokenizerInvariantsOnRandomBytes) {
  Rng rng(GetParam());
  text::Tokenizer tokenizer;
  for (int i = 0; i < 200; ++i) {
    std::string input =
        rng.NextBool(0.5) ? RandomBytes(rng, 300) : RandomAsciiSoup(rng, 300);
    std::vector<std::string> tokens = tokenizer.Tokenize(input);
    for (const auto& t : tokens) {
      EXPECT_GE(t.size(), tokenizer.options().min_token_length);
      EXPECT_LE(t.size(), tokenizer.options().max_token_length);
      for (char c : t) {
        bool lower_alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        EXPECT_TRUE(lower_alnum) << "non-normalized char in token: " << t;
      }
    }
  }
}

TEST_P(FuzzRobustness, PipelineNeverCrashesAndStemsAreTokens) {
  Rng rng(GetParam());
  text::TextPipeline pipeline;
  for (int i = 0; i < 100; ++i) {
    std::string input = RandomAsciiSoup(rng, 500);
    text::ProcessedText out = pipeline.Process(input);
    for (const auto& term : out.terms) {
      EXPECT_FALSE(term.empty());
      EXPECT_LE(term.size(), 31u);  // Stemming may append one 'e'.
    }
  }
}

TEST_P(FuzzRobustness, LanguageIdentifierTotalOnRandomBytes) {
  Rng rng(GetParam());
  text::LanguageIdentifier id;
  for (int i = 0; i < 100; ++i) {
    std::string input = RandomBytes(rng, 400);
    text::Language lang = id.Identify(input);
    (void)lang;  // Any value is fine; it just must not crash.
    for (const auto& [language, score] : id.Scores(input)) {
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0 + 1e-9);
    }
  }
}

TEST_P(FuzzRobustness, AnnotatorInvariantsOnRandomTokens) {
  Rng rng(GetParam());
  static const entity::KnowledgeBase* kb =
      new entity::KnowledgeBase(entity::BuildDefaultKnowledgeBase());
  entity::EntityAnnotator annotator(kb);
  text::Tokenizer tokenizer;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::string> tokens =
        tokenizer.Tokenize(RandomAsciiSoup(rng, 400));
    std::vector<entity::Annotation> annotations = annotator.Annotate(tokens);
    size_t last_end = 0;
    for (const auto& a : annotations) {
      EXPECT_LT(a.entity, kb->size());
      EXPECT_GT(a.dscore, 0.0);
      EXPECT_LE(a.dscore, 1.0);
      EXPECT_GE(a.begin_token, last_end) << "overlapping mentions";
      EXPECT_GE(a.token_count, 1u);
      EXPECT_LE(a.begin_token + a.token_count, tokens.size());
      last_end = a.begin_token + a.token_count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRobustness,
                         ::testing::ValuesIn(fuzz::kSeeds));

}  // namespace
}  // namespace crowdex
