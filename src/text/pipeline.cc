#include "text/pipeline.h"

#include <utility>

namespace crowdex::text {

TextPipeline::TextPipeline(TextPipelineOptions options)
    : tokenizer_(options.tokenizer), options_(options) {
  // `Sanitize` reads only these three options.
  const TokenizerOptions defaults;
  sanitizes_like_identifier_ =
      options.tokenizer.strip_urls == defaults.strip_urls &&
      options.tokenizer.strip_mentions == defaults.strip_mentions &&
      options.tokenizer.keep_hashtag_words == defaults.keep_hashtag_words;
}

ProcessedText TextPipeline::Process(std::string_view raw) const {
  const std::string sanitized = tokenizer_.Sanitize(raw);
  ProcessedText out;
  out.language = IdentifyLanguage(raw, sanitized);
  out.terms = TermsFromTokens(tokenizer_.TokenizeSanitized(sanitized));
  return out;
}

std::vector<std::string> TextPipeline::ProcessTerms(
    std::string_view raw) const {
  return TermsFromTokens(tokenizer_.Tokenize(raw));
}

Language TextPipeline::IdentifyLanguage(std::string_view raw,
                                        std::string_view sanitized) const {
  return sanitizes_like_identifier_ ? lang_id_.IdentifySanitized(sanitized)
                                    : lang_id_.Identify(raw);
}

std::vector<std::string> TextPipeline::TermsFromTokens(
    std::vector<std::string> tokens) const {
  size_t kept = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (options_.remove_stopwords && stopwords_.IsStopword(tokens[i])) {
      continue;
    }
    if (options_.stem) {
      tokens[kept] = stemmer_.Stem(tokens[i]);
    } else if (kept != i) {
      tokens[kept] = std::move(tokens[i]);
    }
    ++kept;
  }
  tokens.resize(kept);
  // Terms live as long as the analyzed corpus: drop the stop words' slots.
  tokens.shrink_to_fit();
  return tokens;
}

}  // namespace crowdex::text
