#ifndef CROWDEX_TEXT_PIPELINE_H_
#define CROWDEX_TEXT_PIPELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/language_id.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace crowdex::text {

/// The output of text processing: the ordered list of index terms.
struct ProcessedText {
  /// Stemmed, stop-word-free, lowercase terms in document order.
  std::vector<std::string> terms;
  /// Detected language of the raw text.
  Language language = Language::kUnknown;
};

/// Feature toggles for the text pipeline, used by the ablation studies
/// (every switch defaults to the paper's configuration).
struct TextPipelineOptions {
  TokenizerOptions tokenizer;
  /// Apply the Porter stemmer (standard IR preprocessing, Sec. 2.3).
  bool stem = true;
  /// Remove English stop words.
  bool remove_stopwords = true;
};

/// The full "Text Processing" step of the analysis pipeline (Fig. 4):
/// sanitization -> tokenization -> stop-word removal -> stemming, preceded
/// by language identification. Both expertise needs (queries) and resources
/// go through this same pipeline, as the paper analyzes them symmetrically.
class TextPipeline {
 public:
  TextPipeline() : TextPipeline(TextPipelineOptions{}) {}
  explicit TextPipeline(TokenizerOptions tokenizer_options)
      : TextPipeline(TextPipelineOptions{.tokenizer = tokenizer_options}) {}
  explicit TextPipeline(TextPipelineOptions options);

  /// Runs the complete pipeline on `raw`, sanitizing and tokenizing it
  /// once. The language is always detected; terms are produced regardless
  /// of language (callers decide whether to keep non-English output — the
  /// indexing layer drops it).
  ProcessedText Process(std::string_view raw) const;

  /// Like `Process` but skips language identification (used for queries,
  /// which are known to be English expertise needs).
  std::vector<std::string> ProcessTerms(std::string_view raw) const;

  /// The language of `raw`, given `sanitized == tokenizer().Sanitize(raw)`.
  /// The identifier reads `sanitized` directly when this pipeline sanitizes
  /// like its default tokenizer (the paper's configuration); otherwise it
  /// sanitizes `raw` itself.
  Language IdentifyLanguage(std::string_view raw,
                            std::string_view sanitized) const;

  /// Stop-word removal then stemming (per the options) of raw tokens, in
  /// place: `TermsFromTokens(tokenizer().Tokenize(raw)) == ProcessTerms(raw)`.
  /// The tokenize-once step of resource and query analysis, which hand the
  /// same raw tokens to the entity annotator first.
  std::vector<std::string> TermsFromTokens(
      std::vector<std::string> tokens) const;

  const Tokenizer& tokenizer() const { return tokenizer_; }
  const StopwordFilter& stopwords() const { return stopwords_; }
  const PorterStemmer& stemmer() const { return stemmer_; }
  const LanguageIdentifier& language_identifier() const { return lang_id_; }
  const TextPipelineOptions& options() const { return options_; }

 private:
  Tokenizer tokenizer_;
  TextPipelineOptions options_;
  StopwordFilter stopwords_;
  PorterStemmer stemmer_;
  LanguageIdentifier lang_id_;
  /// True iff `tokenizer_` sanitizes exactly like a default `Tokenizer`.
  bool sanitizes_like_identifier_ = true;
};

}  // namespace crowdex::text

#endif  // CROWDEX_TEXT_PIPELINE_H_
