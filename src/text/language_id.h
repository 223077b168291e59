#ifndef CROWDEX_TEXT_LANGUAGE_ID_H_
#define CROWDEX_TEXT_LANGUAGE_ID_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace crowdex::text {

/// Languages the identifier can distinguish. The paper's pipeline keeps
/// only English resources (~230k of ~330k); everything else is filtered
/// before text processing.
enum class Language {
  kUnknown = 0,
  kEnglish,
  kItalian,
  kSpanish,
  kFrench,
  kGerman,
};

/// Returns the ISO-639-1-style code for `lang` ("en", "it", ...).
std::string_view LanguageCode(Language lang);

/// The language-identification step of the analysis pipeline (Sec. 2.3).
///
/// Classification combines two deterministic signals:
///  1. the fraction of tokens that are very frequent function words of each
///     candidate language (articles, prepositions, pronouns), and
///  2. cosine similarity between the text's character-trigram frequency
///     vector and per-language profiles built from embedded sample text.
///
/// Short texts are dominated by signal (1), long texts by (2); the blend
/// makes both tweets and article-length pages classify reliably. Texts with
/// no discriminative evidence return `kUnknown`.
///
/// Both signals come from one allocation-free scan over the sanitized text.
/// Tokens are counted with exact `Tokenizer` semantics (default options) and
/// each is probed once in a merged function-word table that maps a packed
/// word to a bitmask of the languages it belongs to. Trigrams of the
/// normalized `[a-z_]` stream index a dense 27^3 table whose entry names a
/// row of the five profile frequencies (row 0 is all zeros), so every
/// trigram costs one table read and five adds. The tables are built once,
/// in the constructor.
///
/// Decisions equal those of the original per-text hash-map formulation,
/// kept as a test oracle. `Scores()` may differ from it in the last ulps:
/// trigram contributions are summed in text order instead of hash-map
/// order, and the text-vector norm comes from exact integer counts.
class LanguageIdentifier {
 public:
  /// Number of candidate languages (every `Language` but `kUnknown`).
  static constexpr size_t kNumLanguages = 5;

  LanguageIdentifier();

  /// Returns the most likely language of `raw_text`, or `kUnknown` when the
  /// evidence is too weak (score below `min_confidence`).
  Language Identify(std::string_view raw_text) const;

  /// `Identify` for text already sanitized with the default tokenizer
  /// options (`Tokenizer{}.Sanitize(raw_text)`): the analyzer sanitizes each
  /// resource once and shares the result with tokenization.
  Language IdentifySanitized(std::string_view sanitized) const;

  /// Returns the per-language scores for `raw_text` (useful for tests and
  /// diagnostics). Scores are in [0, 1], higher = more likely.
  std::vector<std::pair<Language, double>> Scores(
      std::string_view raw_text) const;

  /// Minimum winning score below which `Identify` returns kUnknown.
  double min_confidence() const { return min_confidence_; }
  void set_min_confidence(double v) { min_confidence_ = v; }

 private:
  using LanguageScores = std::array<double, kNumLanguages>;

  /// One slot of the open-addressed function-word table; key 0 = empty.
  struct WordSlot {
    uint64_t key = 0;
    uint8_t languages = 0;  // Bit l set = function word of languages_[l].
  };

  LanguageScores ScoreSanitized(std::string_view sanitized) const;
  uint8_t FunctionWordLanguages(uint64_t packed_word) const;

  std::array<Language, kNumLanguages> languages_{};
  std::vector<WordSlot> word_slots_;  // Power-of-two size.
  /// Dense trigram code -> row of `profile_rows_` (0 = in no profile).
  std::vector<uint16_t> trigram_row_;
  /// Row r holds the normalized frequency of one trigram in each profile.
  std::vector<LanguageScores> profile_rows_;
  LanguageScores profile_norm_{};  // ||profile|| per language.
  double min_confidence_ = 0.08;
};

}  // namespace crowdex::text

#endif  // CROWDEX_TEXT_LANGUAGE_ID_H_
