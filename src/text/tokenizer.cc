#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace crowdex::text {

namespace {

// Returns the end index of a URL starting at `i` in `s`.
size_t UrlEnd(std::string_view s, size_t i) {
  size_t j = i;
  while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) {
    ++j;
  }
  return j;
}

bool StartsUrlAt(std::string_view s, size_t i) {
  // Every URL prefix starts with 'h' or 'w': one compare rejects almost
  // every position before the prefix tests run.
  if (s[i] != 'h' && s[i] != 'w') return false;
  return StartsWith(s.substr(i), "http://") ||
         StartsWith(s.substr(i), "https://") ||
         StartsWith(s.substr(i), "www.");
}

}  // namespace

std::string Tokenizer::Sanitize(std::string_view raw) const {
  std::string out;
  out.reserve(raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    char c = raw[i];
    if (options_.strip_urls && StartsUrlAt(raw, i)) {
      i = UrlEnd(raw, i);
      out.push_back(' ');
      continue;
    }
    if (options_.strip_mentions && c == '@' && i + 1 < raw.size() &&
        (IsAsciiAlpha(raw[i + 1]) || raw[i + 1] == '_')) {
      ++i;
      while (i < raw.size() &&
             (IsAsciiAlpha(raw[i]) || IsAsciiDigit(raw[i]) || raw[i] == '_')) {
        ++i;
      }
      out.push_back(' ');
      continue;
    }
    if (c == '#' && options_.keep_hashtag_words) {
      out.push_back(' ');  // Drop the '#', keep the word that follows.
      ++i;
      continue;
    }
    if (c == '&') {
      // Skip HTML entities like &amp; &lt; &#39; (bounded scan).
      size_t j = i + 1;
      size_t limit = std::min(raw.size(), i + 8);
      while (j < limit && raw[j] != ';' &&
             !std::isspace(static_cast<unsigned char>(raw[j]))) {
        ++j;
      }
      if (j < limit && raw[j] == ';') {
        i = j + 1;
        out.push_back(' ');
        continue;
      }
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view raw) const {
  return TokenizeSanitized(Sanitize(raw));
}

std::vector<std::string> Tokenizer::TokenizeSanitized(
    std::string_view cleaned) const {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (current.size() >= options_.min_token_length &&
        current.size() <= options_.max_token_length) {
      if (!options_.drop_pure_numbers ||
          !std::all_of(current.begin(), current.end(),
                       [](char c) { return IsAsciiDigit(c); })) {
        tokens.push_back(current);
      }
    }
    current.clear();
  };
  for (char c : cleaned) {
    if (IsAsciiAlpha(c)) {
      current.push_back(
          c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
    } else if (IsAsciiDigit(c)) {
      current.push_back(c);
    } else if (c == '\'') {
      // Drop apostrophes inside words ("don't" -> "dont") so possessives
      // and contractions normalize consistently.
      continue;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace crowdex::text
