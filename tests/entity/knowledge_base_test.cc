#include "entity/knowledge_base.h"

#include <gtest/gtest.h>

#include <set>

namespace crowdex::entity {
namespace {

Entity MakeEntity(std::string name, Domain domain,
                  std::vector<std::string> aliases = {},
                  std::vector<std::string> context = {}) {
  Entity e;
  e.name = std::move(name);
  e.uri = "wiki/test";
  e.domain = domain;
  e.aliases = std::move(aliases);
  e.context_terms = std::move(context);
  return e;
}

TEST(KnowledgeBaseTest, AddAssignsSequentialIds) {
  KnowledgeBase kb;
  EntityId a = kb.Add(MakeEntity("Alpha", Domain::kScience));
  EntityId b = kb.Add(MakeEntity("Beta", Domain::kScience));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(kb.size(), 2u);
}

TEST(KnowledgeBaseTest, CanonicalNameBecomesAlias) {
  KnowledgeBase kb;
  kb.Add(MakeEntity("Michael Phelps", Domain::kSport));
  auto candidates = kb.CandidatesForAlias("michael phelps");
  ASSERT_EQ(candidates.size(), 1u);
}

TEST(KnowledgeBaseTest, ExplicitAliasesIndexed) {
  KnowledgeBase kb;
  kb.Add(MakeEntity("Michael Phelps", Domain::kSport, {"phelps"}));
  EXPECT_EQ(kb.CandidatesForAlias("phelps").size(), 1u);
  EXPECT_EQ(kb.CandidatesForAlias("michael phelps").size(), 1u);
}

TEST(KnowledgeBaseTest, AmbiguousAliasReturnsAllCandidates) {
  KnowledgeBase kb;
  kb.Add(MakeEntity("Python (language)", Domain::kComputerEngineering,
                    {"python"}));
  kb.Add(MakeEntity("Python (snake)", Domain::kScience, {"python"}));
  EXPECT_EQ(kb.CandidatesForAlias("python").size(), 2u);
}

TEST(KnowledgeBaseTest, UnknownAliasIsEmpty) {
  KnowledgeBase kb;
  EXPECT_TRUE(kb.CandidatesForAlias("nothing").empty());
}

TEST(KnowledgeBaseTest, GetOutOfRangeFails) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.Get(0).ok());
  kb.Add(MakeEntity("X1", Domain::kMusic));
  EXPECT_TRUE(kb.Get(0).ok());
  EXPECT_FALSE(kb.Get(1).ok());
}

TEST(KnowledgeBaseTest, EntitiesInDomain) {
  KnowledgeBase kb;
  kb.Add(MakeEntity("A1", Domain::kMusic));
  kb.Add(MakeEntity("B1", Domain::kSport));
  kb.Add(MakeEntity("C1", Domain::kMusic));
  auto music = kb.EntitiesInDomain(Domain::kMusic);
  EXPECT_EQ(music.size(), 2u);
  EXPECT_TRUE(kb.EntitiesInDomain(Domain::kLocation).empty());
}

TEST(KnowledgeBaseTest, MaxAliasTokensTracksLongestAlias) {
  KnowledgeBase kb;
  EXPECT_EQ(kb.max_alias_tokens(), 0u);
  kb.Add(MakeEntity("Solo", Domain::kMusic));
  EXPECT_EQ(kb.max_alias_tokens(), 1u);
  kb.Add(MakeEntity("How I Met Your Mother", Domain::kMoviesTv));
  // "i" is dropped by alias normalization -> "how met your mother".
  EXPECT_EQ(kb.max_alias_tokens(), 4u);
}

TEST(KnowledgeBaseTest, LongestAliasStartingWithIndexesFirstTokens) {
  KnowledgeBase kb;
  kb.Add(MakeEntity("Michael Phelps", Domain::kSport, {"phelps"}));
  kb.Add(MakeEntity("How I Met Your Mother", Domain::kMoviesTv));
  kb.Add(MakeEntity("Michael", Domain::kMusic));
  EXPECT_EQ(kb.LongestAliasStartingWith("michael"), 2u);
  EXPECT_EQ(kb.LongestAliasStartingWith("phelps"), 1u);
  EXPECT_EQ(kb.LongestAliasStartingWith("how"), 4u);
  EXPECT_EQ(kb.LongestAliasStartingWith("mother"), 0u);
  EXPECT_EQ(kb.LongestAliasStartingWith(""), 0u);
}

TEST(EntityTypeTest, Names) {
  EXPECT_EQ(EntityTypeName(EntityType::kPerson), "Person");
  EXPECT_EQ(EntityTypeName(EntityType::kPlace), "Place");
  EXPECT_EQ(EntityTypeName(EntityType::kSportsTeam), "SportsTeam");
  EXPECT_EQ(EntityTypeName(EntityType::kConcept), "Concept");
}

// --- Default knowledge base sanity ---

TEST(DefaultKbTest, CoversAllDomains) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  EXPECT_GT(kb.size(), 100u);
  for (Domain d : kAllDomains) {
    EXPECT_GE(kb.EntitiesInDomain(d).size(), 15u) << DomainName(d);
  }
}

TEST(DefaultKbTest, PaperEntitiesPresent) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  // Entities named in the paper's running examples and queries.
  for (const char* alias :
       {"michael phelps", "php", "milan", "how i met your mother",
        "michael jackson", "copper", "diablo 3", "freestyle"}) {
    EXPECT_FALSE(kb.CandidatesForAlias(alias).empty()) << alias;
  }
}

TEST(DefaultKbTest, DeliberateAmbiguitiesExist) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  // Cross-domain alias collisions that stress disambiguation.
  for (const char* alias : {"python", "milan", "apple", "opera", "conductor",
                            "tesla", "barcelona", "thriller"}) {
    auto candidates = kb.CandidatesForAlias(alias);
    ASSERT_GE(candidates.size(), 2u) << alias;
    std::set<Domain> domains;
    for (EntityId id : candidates) domains.insert(kb.at(id).domain);
    EXPECT_GE(domains.size(), 2u) << alias << " should span domains";
  }
}

TEST(DefaultKbTest, EveryEntityHasContextAndUri) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  for (const Entity& e : kb.entities()) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_FALSE(e.uri.empty()) << e.name;
    EXPECT_GE(e.context_terms.size(), 3u) << e.name;
    EXPECT_FALSE(e.aliases.empty()) << e.name;
  }
}

TEST(DefaultKbTest, AliasesAreLowercase) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  for (const Entity& e : kb.entities()) {
    for (const auto& alias : e.aliases) {
      for (char c : alias) {
        EXPECT_FALSE(c >= 'A' && c <= 'Z')
            << "alias not lowercase: " << alias << " of " << e.name;
      }
    }
  }
}

TEST(DefaultKbTest, IdsAreConsistent) {
  KnowledgeBase kb = BuildDefaultKnowledgeBase();
  for (size_t i = 0; i < kb.size(); ++i) {
    EXPECT_EQ(kb.at(static_cast<EntityId>(i)).id, i);
  }
}

}  // namespace
}  // namespace crowdex::entity
