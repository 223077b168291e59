#include "entity/annotator.h"

#include <algorithm>

namespace crowdex::entity {

EntityAnnotator::EntityAnnotator(const KnowledgeBase* kb,
                                 AnnotatorOptions options)
    : kb_(kb), options_(options) {
  stemmed_context_.reserve(kb_->size());
  for (const Entity& e : kb_->entities()) {
    std::vector<std::string> stems;
    stems.reserve(e.context_terms.size());
    for (const auto& term : e.context_terms) {
      stems.push_back(stemmer_.Stem(term));
    }
    std::sort(stems.begin(), stems.end());
    stems.erase(std::unique(stems.begin(), stems.end()), stems.end());
    stemmed_context_.push_back(std::move(stems));
  }
}

std::pair<EntityId, double> EntityAnnotator::Disambiguate(
    std::span<const EntityId> candidates,
    const std::unordered_set<std::string>& text_stems) const {
  EntityId best = kInvalidEntityId;
  double best_coverage = -1.0;
  for (EntityId id : candidates) {
    const auto& context = stemmed_context_[id];
    if (context.empty()) continue;
    double hits = 0.0;
    for (const auto& stem : context) {
      if (text_stems.contains(stem)) hits += 1.0;
    }
    double coverage = hits / static_cast<double>(context.size());
    if (coverage > best_coverage) {
      best_coverage = coverage;
      best = id;
    }
  }
  if (best == kInvalidEntityId) return {kInvalidEntityId, 0.0};

  double dscore;
  if (candidates.size() == 1) {
    // Unambiguous surface form: keep it even without contextual support,
    // but reward supporting context.
    dscore = options_.unambiguous_floor +
             (1.0 - options_.unambiguous_floor) * best_coverage;
  } else {
    // Ambiguous surface form: confidence comes from context alone, so a
    // bare mention ("python" with no nearby evidence) stays below the
    // acceptance threshold and is dropped.
    dscore = best_coverage;
  }
  if (dscore < options_.min_dscore) return {kInvalidEntityId, 0.0};
  return {best, std::min(dscore, 1.0)};
}

std::vector<Annotation> EntityAnnotator::Annotate(
    const std::vector<std::string>& tokens) const {
  std::vector<Annotation> out;

  // Stemmed bag of the whole text = the disambiguation context. Built on
  // the first alias match only (a text that mentions no entity never needs
  // it), stemming each distinct token once.
  std::unordered_set<std::string> text_stems;
  bool stems_built = false;
  auto build_stems = [&] {
    std::vector<std::string_view> distinct(tokens.begin(), tokens.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    text_stems.reserve(distinct.size());
    for (std::string_view t : distinct) text_stems.insert(stemmer_.Stem(t));
    stems_built = true;
  };

  std::string window;  // Multi-token alias probe, reused across positions.
  size_t i = 0;
  while (i < tokens.size()) {
    // No alias starts with this token: no mention can begin here.
    const size_t longest = kb_->LongestAliasStartingWith(tokens[i]);
    size_t matched_len = 0;
    std::pair<EntityId, double> resolved{kInvalidEntityId, 0.0};
    for (size_t len = std::min(longest, tokens.size() - i); len >= 1; --len) {
      std::string_view alias = tokens[i];
      if (len > 1) {
        window.assign(tokens[i]);
        for (size_t k = 1; k < len; ++k) {
          window += ' ';
          window += tokens[i + k];
        }
        alias = window;
      }
      std::span<const EntityId> candidates =
          kb_->CandidatesForNormalizedAlias(alias);
      if (candidates.empty()) continue;
      if (!stems_built) build_stems();
      resolved = Disambiguate(candidates, text_stems);
      matched_len = len;
      break;  // Longest match wins whether or not it disambiguated.
    }
    if (matched_len == 0) {
      ++i;
      continue;
    }
    if (resolved.first != kInvalidEntityId) {
      Annotation a;
      a.entity = resolved.first;
      a.dscore = resolved.second;
      a.begin_token = i;
      a.token_count = matched_len;
      out.push_back(a);
    }
    i += matched_len;
  }
  return out;
}

}  // namespace crowdex::entity
