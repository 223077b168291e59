#include "text/pipeline.h"

#include <gtest/gtest.h>

namespace crowdex::text {
namespace {

TEST(PipelineTest, ProcessTermsFullChain) {
  TextPipeline p;
  // "the" is a stopword; "swimmers" stems to "swimmer"; "training" -> "train".
  std::vector<std::string> terms =
      p.ProcessTerms("The best swimmers love training!");
  EXPECT_EQ(terms,
            (std::vector<std::string>{"best", "swimmer", "love", "train"}));
}

TEST(PipelineTest, ProcessDetectsLanguage) {
  TextPipeline p;
  ProcessedText out = p.Process(
      "the quick brown fox jumps over the lazy dog in the garden today");
  EXPECT_EQ(out.language, Language::kEnglish);
  EXPECT_FALSE(out.terms.empty());
}

TEST(PipelineTest, ItalianDetectedButTermsStillProduced) {
  TextPipeline p;
  ProcessedText out =
      p.Process("oggi la giornata e molto bella e andiamo a mangiare");
  EXPECT_EQ(out.language, Language::kItalian);
  // Terms are produced regardless; indexing layers decide what to keep.
  EXPECT_FALSE(out.terms.empty());
}

TEST(PipelineTest, EmptyInput) {
  TextPipeline p;
  ProcessedText out = p.Process("");
  EXPECT_EQ(out.language, Language::kUnknown);
  EXPECT_TRUE(out.terms.empty());
}

TEST(PipelineTest, QueryAndResourceAnalyzedSymmetrically) {
  // Sec. 2.3: the same analysis applies to needs and resources, so matching
  // works end-to-end. A query and a post about the same topic must share
  // stemmed terms.
  TextPipeline p;
  auto query = p.ProcessTerms("Can you list some famous European football "
                              "teams?");
  auto post = p.ProcessTerms("great football team wins again");
  bool overlap = false;
  for (const auto& q : query) {
    for (const auto& r : post) {
      if (q == r) overlap = true;
    }
  }
  EXPECT_TRUE(overlap);
}

TEST(PipelineTest, UrlsAndMentionsRemoved) {
  TextPipeline p;
  auto terms = p.ProcessTerms("@bob check http://spam.example now");
  EXPECT_EQ(terms, (std::vector<std::string>{"check", "now"}));
}

TEST(PipelineTest, StopwordsRemovedBeforeStemming) {
  TextPipeline p;
  // "being" is a stopword and must not surface as stem "be".
  auto terms = p.ProcessTerms("being champions");
  EXPECT_EQ(terms, (std::vector<std::string>{"champion"}));
}

TEST(PipelineTest, CustomTokenizerOptionsRespected) {
  TokenizerOptions opts;
  opts.keep_hashtag_words = true;
  TextPipeline p(opts);
  auto terms = p.ProcessTerms("#swimming is great");
  EXPECT_EQ(terms.front(), "swim");
}

TEST(PipelineOptionsTest, StemmingDisabled) {
  TextPipelineOptions opts;
  opts.stem = false;
  TextPipeline p(opts);
  auto terms = p.ProcessTerms("swimmers love training");
  EXPECT_EQ(terms,
            (std::vector<std::string>{"swimmers", "love", "training"}));
}

TEST(PipelineOptionsTest, StopwordsDisabled) {
  TextPipelineOptions opts;
  opts.remove_stopwords = false;
  TextPipeline p(opts);
  auto terms = p.ProcessTerms("the best swimmer");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "the");
}

TEST(PipelineOptionsTest, BothDisabledIsTokenizeOnly) {
  TextPipelineOptions opts;
  opts.stem = false;
  opts.remove_stopwords = false;
  TextPipeline p(opts);
  auto terms = p.ProcessTerms("The Swimmers!");
  EXPECT_EQ(terms, (std::vector<std::string>{"the", "swimmers"}));
}

TEST(PipelineOptionsTest, NonDefaultSanitizingKeepsLanguageDecision) {
  // Language ID always sanitizes with the default options; a pipeline that
  // sanitizes differently must not hand it its own sanitized text.
  const std::string text =
      "http://www.le-monde.example/la-politique-de-la-france the match "
      "was great";
  TextPipelineOptions opts;
  opts.tokenizer.strip_urls = false;
  TextPipeline p(opts);
  const LanguageIdentifier id;
  ASSERT_EQ(id.Identify(text), Language::kEnglish);
  // With the URL kept, its French words would decide the language.
  ASSERT_NE(id.IdentifySanitized(p.tokenizer().Sanitize(text)),
            Language::kEnglish);
  EXPECT_EQ(p.Process(text).language, Language::kEnglish);
  EXPECT_EQ(p.Process(text).terms, p.ProcessTerms(text));
}

TEST(PipelineTest, TermsFromTokensEqualsProcessTerms) {
  TextPipeline p;
  const std::string text = "The swimmers were training, being champions!";
  EXPECT_EQ(p.TermsFromTokens(p.tokenizer().Tokenize(text)),
            p.ProcessTerms(text));
  EXPECT_EQ(p.Process(text).terms, p.ProcessTerms(text));
}

TEST(PipelineOptionsTest, DefaultsMatchPaperPipeline) {
  TextPipelineOptions opts;
  EXPECT_TRUE(opts.stem);
  EXPECT_TRUE(opts.remove_stopwords);
}

}  // namespace
}  // namespace crowdex::text
