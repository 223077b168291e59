#ifndef CROWDEX_ENTITY_KNOWLEDGE_BASE_H_
#define CROWDEX_ENTITY_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/domain.h"
#include "common/status.h"
#include "common/string_util.h"

namespace crowdex::entity {

/// Opaque identifier of an entity within a `KnowledgeBase`.
using EntityId = uint32_t;

/// Sentinel for "no entity".
inline constexpr EntityId kInvalidEntityId = 0xFFFFFFFFu;

/// Coarse entity types, mirroring the type taxonomy the paper mentions
/// (Person, City, Sports Team, Athlete, ...).
enum class EntityType {
  kPerson = 0,
  kPlace,
  kOrganization,
  kCreativeWork,   // Movies, TV shows, songs, games.
  kSportsTeam,
  kProduct,
  kConcept,        // Abstract topics: "information retrieval", "conductor".
};

/// Returns a display name for `type` ("Person", "Place", ...).
std::string_view EntityTypeName(EntityType type);

/// A real-world entity in the knowledge base — the analogue of a Wikipedia
/// page in the TAGME annotator the paper uses [10].
struct Entity {
  EntityId id = kInvalidEntityId;
  /// Canonical display name, e.g. "Michael Phelps".
  std::string name;
  /// Wikipedia-style URI, e.g. "wiki/Michael_Phelps".
  std::string uri;
  EntityType type = EntityType::kConcept;
  /// The expertise domain this entity belongs to.
  Domain domain = Domain::kScience;
  /// Lowercase surface forms that may mention this entity, including the
  /// canonical name. Multi-word aliases use single spaces ("michael phelps").
  std::vector<std::string> aliases;
  /// Lowercase context words that co-occur with the entity; used by the
  /// disambiguator to score candidate interpretations.
  std::vector<std::string> context_terms;
};

/// An in-memory entity catalog with alias lookup.
///
/// Aliases are intentionally allowed to be ambiguous (shared by several
/// entities); the `Disambiguator` resolves them using context, exactly the
/// failure mode the paper's Sec. 3.3.2 exercises when it varies α.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  /// Adds `entity` (id is assigned by the KB and returned). The entity's
  /// canonical name is automatically registered as an alias if absent.
  EntityId Add(Entity entity);

  /// Returns the entity with `id`, or an error if out of range.
  Result<Entity> Get(EntityId id) const;

  /// Returns the entity with `id`; must be a valid id (checked by assert).
  const Entity& at(EntityId id) const;

  /// Returns candidate entity ids for `alias`. The alias is normalized the
  /// way the tokenizer would ("How I Met Your Mother" -> "how met your
  /// mother", "Diablo 3" -> "diablo") before lookup. The span views the
  /// KB's own storage: valid until the next `Add`.
  std::span<const EntityId> CandidatesForAlias(std::string_view alias) const;

  /// Exact-match lookup for already token-normalized surface forms (the
  /// hot path of the mention scanner, which works on tokenizer output).
  /// Allocation-free; the span is valid until the next `Add`.
  std::span<const EntityId> CandidatesForNormalizedAlias(
      std::string_view alias) const;

  /// Length, in tokens, of the longest normalized alias whose first token
  /// is `token`; 0 when no alias starts with it. Lets the mention scanner
  /// skip, with one probe, every position where no mention can begin.
  size_t LongestAliasStartingWith(std::string_view token) const;

  /// Returns the ids of all entities in `domain`.
  std::vector<EntityId> EntitiesInDomain(Domain domain) const;

  /// Number of entities.
  size_t size() const { return entities_.size(); }

  /// Longest alias length, in tokens.
  size_t max_alias_tokens() const { return max_alias_tokens_; }

  /// All entities (for iteration / tests).
  const std::vector<Entity>& entities() const { return entities_; }

 private:
  std::vector<Entity> entities_;
  template <typename V>
  using StringMap = std::unordered_map<std::string, V, TransparentStringHash,
                                       std::equal_to<>>;
  StringMap<std::vector<EntityId>> alias_index_;
  /// First token of each alias -> longest alias (in tokens) it starts.
  StringMap<size_t> longest_alias_by_first_token_;
  size_t max_alias_tokens_ = 0;
};

/// Builds the embedded knowledge base spanning the paper's seven domains.
///
/// This is the reproduction's stand-in for the Wikipedia catalog behind
/// TAGME: ~200 entities (people, places, teams, works, products, concepts)
/// with realistic ambiguity — e.g. "python" is both a programming language
/// (computer engineering) and an animal (science); "milan" is both the city
/// (location) and the football club (sport).
KnowledgeBase BuildDefaultKnowledgeBase();

}  // namespace crowdex::entity

#endif  // CROWDEX_ENTITY_KNOWLEDGE_BASE_H_
