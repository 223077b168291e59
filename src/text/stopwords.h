#ifndef CROWDEX_TEXT_STOPWORDS_H_
#define CROWDEX_TEXT_STOPWORDS_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"

namespace crowdex::text {

/// English stop-word filter used by the text-processing step (Sec. 2.3).
///
/// The default list is the classic IR list (articles, pronouns, auxiliary
/// verbs, prepositions, common adverbs). Custom words can be added for
/// domain-specific deployments.
class StopwordFilter {
 public:
  /// Builds a filter over the built-in English list.
  StopwordFilter();

  /// Builds a filter over `words` only (no built-ins).
  explicit StopwordFilter(const std::vector<std::string>& words);

  /// Returns true iff `token` is a stop word. Expects lowercase input.
  /// Allocation-free (heterogeneous lookup).
  bool IsStopword(std::string_view token) const;

  /// Adds `word` to the filter.
  void Add(std::string_view word);

  /// Returns `tokens` with stop words removed, preserving order.
  std::vector<std::string> Filter(const std::vector<std::string>& tokens) const;

  /// Number of words in the filter.
  size_t size() const { return words_.size(); }

 private:
  std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
      words_;
};

/// Returns the built-in English stop-word list.
const std::vector<std::string>& EnglishStopwords();

}  // namespace crowdex::text

#endif  // CROWDEX_TEXT_STOPWORDS_H_
