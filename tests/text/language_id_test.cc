#include "text/language_id.h"

#include <gtest/gtest.h>

#include "text/language_id_oracle.h"

namespace crowdex::text {
namespace {

class LanguageIdTest : public ::testing::Test {
 protected:
  LanguageIdentifier id_;
};

TEST_F(LanguageIdTest, EnglishSentence) {
  EXPECT_EQ(id_.Identify("the weather is very nice today and we are going to "
                         "the beach with some friends"),
            Language::kEnglish);
}

TEST_F(LanguageIdTest, ItalianSentence) {
  EXPECT_EQ(id_.Identify("oggi il tempo e molto bello e andiamo al mare con "
                         "gli amici per una bella giornata"),
            Language::kItalian);
}

TEST_F(LanguageIdTest, SpanishSentence) {
  EXPECT_EQ(id_.Identify("hoy el tiempo es muy bueno y vamos a la playa con "
                         "los amigos para pasar el dia"),
            Language::kSpanish);
}

TEST_F(LanguageIdTest, FrenchSentence) {
  EXPECT_EQ(id_.Identify("le temps est tres beau et nous allons a la plage "
                         "avec des amis pour la journee"),
            Language::kFrench);
}

TEST_F(LanguageIdTest, GermanSentence) {
  EXPECT_EQ(id_.Identify("das wetter ist heute sehr gut und wir gehen mit "
                         "den freunden an den strand fur den tag"),
            Language::kGerman);
}

TEST_F(LanguageIdTest, ShortEnglishTweet) {
  EXPECT_EQ(id_.Identify("just finished the best training of my life at the "
                         "swimming pool"),
            Language::kEnglish);
}

TEST_F(LanguageIdTest, EmptyTextIsUnknown) {
  EXPECT_EQ(id_.Identify(""), Language::kUnknown);
}

TEST_F(LanguageIdTest, GibberishIsUnknown) {
  EXPECT_EQ(id_.Identify("zzxqj vvkpw qqq"), Language::kUnknown);
}

TEST_F(LanguageIdTest, NumbersOnlyIsUnknown) {
  EXPECT_EQ(id_.Identify("12345 67890"), Language::kUnknown);
}

TEST_F(LanguageIdTest, ScoresSumSanity) {
  auto scores = id_.Scores("the cat sat on the mat and it was happy");
  ASSERT_EQ(scores.size(), 5u);
  double best = 0;
  Language best_lang = Language::kUnknown;
  for (const auto& [lang, score] : scores) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    if (score > best) {
      best = score;
      best_lang = lang;
    }
  }
  EXPECT_EQ(best_lang, Language::kEnglish);
}

TEST_F(LanguageIdTest, MinConfidenceTunable) {
  LanguageIdentifier strict;
  strict.set_min_confidence(0.99);
  EXPECT_EQ(strict.Identify("the weather is very nice today"),
            Language::kUnknown);
}

TEST_F(LanguageIdTest, UrlsDoNotConfuse) {
  EXPECT_EQ(id_.Identify("check this out http://example.com/it/es/de it is "
                         "the best article about the topic"),
            Language::kEnglish);
}

TEST(LanguageCodeTest, Codes) {
  EXPECT_EQ(LanguageCode(Language::kEnglish), "en");
  EXPECT_EQ(LanguageCode(Language::kItalian), "it");
  EXPECT_EQ(LanguageCode(Language::kSpanish), "es");
  EXPECT_EQ(LanguageCode(Language::kFrench), "fr");
  EXPECT_EQ(LanguageCode(Language::kGerman), "de");
  EXPECT_EQ(LanguageCode(Language::kUnknown), "??");
}

// The trigram extraction of the reference identifier (the differential
// tests in tests/core/analysis_golden_test.cc rest on it).
TEST(TrigramTest, FrequenciesNormalized) {
  auto freq = oracle::TrigramFrequencies("abc abc");
  double total = 0;
  for (const auto& [tri, f] : freq) {
    EXPECT_GT(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(TrigramTest, TooShortTextYieldsEmpty) {
  EXPECT_TRUE(oracle::TrigramFrequencies("").empty());
}

TEST(TrigramTest, CaseInsensitive) {
  EXPECT_EQ(oracle::TrigramFrequencies("ABC"),
            oracle::TrigramFrequencies("abc"));
}

}  // namespace
}  // namespace crowdex::text
