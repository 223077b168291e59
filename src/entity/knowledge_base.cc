#include "entity/knowledge_base.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace crowdex::entity {

std::string_view EntityTypeName(EntityType type) {
  switch (type) {
    case EntityType::kPerson:
      return "Person";
    case EntityType::kPlace:
      return "Place";
    case EntityType::kOrganization:
      return "Organization";
    case EntityType::kCreativeWork:
      return "CreativeWork";
    case EntityType::kSportsTeam:
      return "SportsTeam";
    case EntityType::kProduct:
      return "Product";
    case EntityType::kConcept:
      return "Concept";
  }
  return "Unknown";
}

namespace {

// Normalizes an alias into the token form the mention scanner sees: the
// tokenizer drops single-character words ("i") and bare numbers ("3"), so
// "how i met your mother" must be indexed as "how met your mother" and
// "diablo 3" as "diablo". Returns "" when nothing survives.
std::string NormalizeAlias(std::string_view alias) {
  std::string lowered = AsciiToLower(alias);
  std::string out;
  for (const auto& word : SplitString(lowered, " ")) {
    bool all_digits =
        std::all_of(word.begin(), word.end(),
                    [](char c) { return IsAsciiDigit(c); });
    if (word.size() < 2 || all_digits) continue;
    if (!out.empty()) out.push_back(' ');
    out += word;
  }
  return out;
}

}  // namespace

EntityId KnowledgeBase::Add(Entity entity) {
  EntityId id = static_cast<EntityId>(entities_.size());
  entity.id = id;

  std::string lowered_name = AsciiToLower(entity.name);
  if (std::find(entity.aliases.begin(), entity.aliases.end(), lowered_name) ==
      entity.aliases.end()) {
    entity.aliases.push_back(lowered_name);
  }

  // Index the token-normalized surface forms, deduplicated (several raw
  // aliases may normalize to the same form, e.g. "diablo 3" and "diablo").
  std::vector<std::string> normalized;
  for (const auto& alias : entity.aliases) {
    std::string n = NormalizeAlias(alias);
    if (n.empty()) continue;
    if (std::find(normalized.begin(), normalized.end(), n) ==
        normalized.end()) {
      normalized.push_back(std::move(n));
    }
  }
  entity.aliases = std::move(normalized);

  for (const auto& alias : entity.aliases) {
    alias_index_[alias].push_back(id);
    size_t tokens = static_cast<size_t>(
        std::count(alias.begin(), alias.end(), ' ')) + 1;
    max_alias_tokens_ = std::max(max_alias_tokens_, tokens);
    size_t& longest =
        longest_alias_by_first_token_[alias.substr(0, alias.find(' '))];
    longest = std::max(longest, tokens);
  }
  entities_.push_back(std::move(entity));
  return id;
}

Result<Entity> KnowledgeBase::Get(EntityId id) const {
  if (id >= entities_.size()) {
    return Status::NotFound("no entity with id " + std::to_string(id));
  }
  return entities_[id];
}

const Entity& KnowledgeBase::at(EntityId id) const {
  assert(id < entities_.size());
  return entities_[id];
}

std::span<const EntityId> KnowledgeBase::CandidatesForAlias(
    std::string_view alias) const {
  return CandidatesForNormalizedAlias(NormalizeAlias(alias));
}

std::span<const EntityId> KnowledgeBase::CandidatesForNormalizedAlias(
    std::string_view alias) const {
  auto it = alias_index_.find(alias);
  if (it == alias_index_.end()) return {};
  return it->second;
}

size_t KnowledgeBase::LongestAliasStartingWith(std::string_view token) const {
  auto it = longest_alias_by_first_token_.find(token);
  return it == longest_alias_by_first_token_.end() ? 0 : it->second;
}

std::vector<EntityId> KnowledgeBase::EntitiesInDomain(Domain domain) const {
  std::vector<EntityId> out;
  for (const auto& e : entities_) {
    if (e.domain == domain) out.push_back(e.id);
  }
  return out;
}

}  // namespace crowdex::entity
