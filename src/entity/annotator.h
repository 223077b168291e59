#ifndef CROWDEX_ENTITY_ANNOTATOR_H_
#define CROWDEX_ENTITY_ANNOTATOR_H_

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "entity/knowledge_base.h"
#include "text/porter_stemmer.h"

namespace crowdex::entity {

/// One recognized and disambiguated entity occurrence in a token stream.
struct Annotation {
  EntityId entity = kInvalidEntityId;
  /// Disambiguation confidence in (0, 1], the `dScore` of Eq. 2: how sure
  /// the annotator is that this mention denotes this entity, given the
  /// surrounding text. Ambiguous mentions with no contextual support are
  /// dropped rather than emitted with dScore 0.
  double dscore = 0.0;
  /// First token of the mention (index into the annotated token vector).
  size_t begin_token = 0;
  /// Number of tokens the mention spans.
  size_t token_count = 0;
};

/// Tuning knobs for the annotator.
struct AnnotatorOptions {
  /// Annotations with dScore below this are discarded — the paper's
  /// annotator "penalizes ambiguous interpretations" the same way.
  double min_dscore = 0.10;
  /// Confidence assigned to an unambiguous mention with no contextual
  /// support at all (a bare name in an otherwise unrelated text).
  double unambiguous_floor = 0.30;
};

/// Entity recognition and disambiguation over short texts (Sec. 2.3).
///
/// This reproduces the role of the TAGME annotator [10]: it finds mentions
/// (longest-match alias scan over the token stream) and assigns each a
/// single entity with a confidence value. Disambiguation scores each
/// candidate entity by how much of its context vocabulary appears in the
/// text (stemmed-term overlap), so "python" in "python function code"
/// resolves to the programming language while "python snake habitat"
/// resolves to the animal, and a bare ambiguous "python" is dropped.
class EntityAnnotator {
 public:
  /// `kb` must outlive the annotator.
  explicit EntityAnnotator(const KnowledgeBase* kb)
      : EntityAnnotator(kb, AnnotatorOptions{}) {}
  EntityAnnotator(const KnowledgeBase* kb, AnnotatorOptions options);

  /// Annotates `tokens` (lowercase, unstemmed, in document order — the
  /// direct output of `text::Tokenizer`). Mentions are matched greedily,
  /// longest alias first, left to right.
  std::vector<Annotation> Annotate(const std::vector<std::string>& tokens) const;

  const AnnotatorOptions& options() const { return options_; }
  const KnowledgeBase& kb() const { return *kb_; }

 private:
  /// Returns the best (entity, dscore) for an alias match, given the set of
  /// stemmed context terms of the whole text. Returns kInvalidEntityId when
  /// every interpretation is below the confidence floor.
  std::pair<EntityId, double> Disambiguate(
      std::span<const EntityId> candidates,
      const std::unordered_set<std::string>& text_stems) const;

  const KnowledgeBase* kb_;
  AnnotatorOptions options_;
  text::PorterStemmer stemmer_;
  /// Per-entity stemmed context vocabulary, precomputed from the KB.
  std::vector<std::vector<std::string>> stemmed_context_;
};

}  // namespace crowdex::entity

#endif  // CROWDEX_ENTITY_ANNOTATOR_H_
