// Reference language identifier for differential tests: the original
// per-text hash-map formulation of `text::LanguageIdentifier` (tokenize,
// sanitize again, build an unordered_map of trigram frequencies, probe each
// profile's maps). It is the most literal reading of the algorithm, kept so
// the table-driven identifier in src/text/ can be checked against it
// decision for decision.

#ifndef CROWDEX_TESTS_TEXT_LANGUAGE_ID_ORACLE_H_
#define CROWDEX_TESTS_TEXT_LANGUAGE_ID_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "text/language_id.h"

namespace crowdex::text::oracle {

/// Normalized character-trigram frequencies keyed by a packed 3-byte code.
using TrigramCounts = std::unordered_map<uint32_t, double>;

/// Extracts a normalized character-trigram frequency map from `text`
/// (lowercased, punctuation collapsed to spaces, padded with '_').
TrigramCounts TrigramFrequencies(std::string_view text);

/// The hash-map language identifier: same samples, function words, signal
/// blend (0.65 function words + 0.35 trigram cosine) and threshold as
/// `text::LanguageIdentifier`.
class HashMapLanguageIdentifier {
 public:
  HashMapLanguageIdentifier();

  Language Identify(std::string_view raw_text) const;
  std::vector<std::pair<Language, double>> Scores(
      std::string_view raw_text) const;

 private:
  struct Profile {
    Language lang;
    TrigramCounts trigram_freq;
    double trigram_norm = 0.0;
    std::unordered_set<std::string> function_words;
  };

  std::vector<Profile> profiles_;
  double min_confidence_ = 0.08;
};

}  // namespace crowdex::text::oracle

#endif  // CROWDEX_TESTS_TEXT_LANGUAGE_ID_ORACLE_H_
