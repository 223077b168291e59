#include "text/stopwords.h"

namespace crowdex::text {

const std::vector<std::string>& EnglishStopwords() {
  static const auto* kWords = new std::vector<std::string>{
      "a",       "about",   "above",   "after",   "again",    "against",
      "all",     "am",      "an",      "and",     "any",      "are",
      "arent",   "as",      "at",      "be",      "because",  "been",
      "before",  "being",   "below",   "between", "both",     "but",
      "by",      "can",     "cannot",  "cant",    "could",    "couldnt",
      "did",     "didnt",   "do",      "does",    "doesnt",   "doing",
      "dont",    "down",    "during",  "each",    "few",      "for",
      "from",    "further", "had",     "hadnt",   "has",      "hasnt",
      "have",    "havent",  "having",  "he",      "hed",      "hell",
      "hes",     "her",     "here",    "heres",   "hers",     "herself",
      "him",     "himself", "his",     "how",     "hows",     "i",
      "id",      "ill",     "im",      "ive",     "if",       "in",
      "into",    "is",      "isnt",    "it",      "its",      "itself",
      "just",    "lets",    "me",      "more",    "most",     "mustnt",
      "my",      "myself",  "no",      "nor",     "not",      "of",
      "off",     "on",      "once",    "only",    "or",       "other",
      "ought",   "our",     "ours",    "ourselves", "out",    "over",
      "own",     "same",    "shant",   "she",     "shed",     "shell",
      "shes",    "should",  "shouldnt", "so",     "some",     "such",
      "than",    "that",    "thats",   "the",     "their",    "theirs",
      "them",    "themselves", "then", "there",   "theres",   "these",
      "they",    "theyd",   "theyll",  "theyre",  "theyve",   "this",
      "those",   "through", "to",      "too",     "under",    "until",
      "up",      "very",    "was",     "wasnt",   "we",       "wed",
      "well",    "were",    "werent",  "weve",    "what",     "whats",
      "when",    "whens",   "where",   "wheres",  "which",    "while",
      "who",     "whos",    "whom",    "why",     "whys",     "with",
      "wont",    "would",   "wouldnt", "you",     "youd",     "youll",
      "youre",   "youve",   "your",    "yours",   "yourself", "yourselves",
  };
  return *kWords;
}

StopwordFilter::StopwordFilter() : StopwordFilter(EnglishStopwords()) {}

StopwordFilter::StopwordFilter(const std::vector<std::string>& words)
    : words_(words.begin(), words.end()) {}

bool StopwordFilter::IsStopword(std::string_view token) const {
  return words_.contains(token);
}

void StopwordFilter::Add(std::string_view word) {
  words_.insert(std::string(word));
}

std::vector<std::string> StopwordFilter::Filter(
    const std::vector<std::string>& tokens) const {
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) {
    if (!IsStopword(t)) out.push_back(t);
  }
  return out;
}

}  // namespace crowdex::text
