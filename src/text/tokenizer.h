#ifndef CROWDEX_TEXT_TOKENIZER_H_
#define CROWDEX_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace crowdex::text {

/// Options controlling sanitization and token emission.
struct TokenizerOptions {
  /// Drop tokens shorter than this many characters.
  size_t min_token_length = 2;
  /// Drop tokens longer than this many characters (noise guard).
  size_t max_token_length = 30;
  /// When true, `http(s)://...` and `www....` spans are removed before
  /// tokenization (their content is handled by URL content extraction, not
  /// by the tokenizer — see `platform::ResourceExtractor`).
  bool strip_urls = true;
  /// When true, `@mention` handles are removed (they name accounts, not
  /// topical content).
  bool strip_mentions = true;
  /// When true, the `#` of a hashtag is removed but the tag word is kept
  /// ("#swimming" -> "swimming"), since hashtags are topical.
  bool keep_hashtag_words = true;
  /// When true, tokens consisting only of digits are dropped.
  bool drop_pure_numbers = true;
};

/// Splits raw social-media text into lowercase word tokens.
///
/// Sanitization handles the idiosyncrasies of the resources the paper
/// analyzes (tweets, wall posts, group posts): URLs, @mentions, #hashtags,
/// HTML entities, punctuation, and repeated whitespace. The tokenizer is
/// deliberately ASCII-oriented: non-ASCII bytes act as separators, which is
/// adequate because non-English resources are filtered upstream by the
/// language identifier (Sec. 3.1 of the paper keeps English text only).
class Tokenizer {
 public:
  Tokenizer() : Tokenizer(TokenizerOptions{}) {}
  explicit Tokenizer(TokenizerOptions options) : options_(options) {}

  /// Returns the sanitized, lowercased word tokens of `raw`; equal to
  /// `TokenizeSanitized(Sanitize(raw))`.
  std::vector<std::string> Tokenize(std::string_view raw) const;

  /// Removes URLs / mentions / HTML entities per the options and returns
  /// the cleaned text. The resource analyzer sanitizes each text once and
  /// hands the result to both the language identifier and
  /// `TokenizeSanitized`.
  std::string Sanitize(std::string_view raw) const;

  /// Splits already-sanitized text (the output of `Sanitize` with these
  /// options) into lowercased word tokens.
  std::vector<std::string> TokenizeSanitized(std::string_view cleaned) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

}  // namespace crowdex::text

#endif  // CROWDEX_TEXT_TOKENIZER_H_
