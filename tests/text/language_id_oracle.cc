#include "text/language_id_oracle.h"

#include <cmath>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace crowdex::text::oracle {

namespace {

// Embedded sample text used to build trigram profiles. Each sample is a few
// sentences of ordinary prose in the language; only character statistics
// matter, not content.
constexpr std::string_view kEnglishSample =
    "the quick brown fox jumps over the lazy dog and then runs through the "
    "green fields looking for something interesting to eat because it has "
    "been hungry since the early morning when the sun was rising over the "
    "hills and the people in the village were starting their daily work "
    "with great energy and enthusiasm for the things that would happen";

constexpr std::string_view kItalianSample =
    "la volpe veloce salta sopra il cane pigro e poi corre attraverso i "
    "campi verdi cercando qualcosa di interessante da mangiare perche ha "
    "fame dalla mattina presto quando il sole sorgeva sopra le colline e le "
    "persone del villaggio iniziavano il loro lavoro quotidiano con grande "
    "energia ed entusiasmo per le cose che sarebbero successe durante la "
    "giornata che si annunciava bellissima";

constexpr std::string_view kSpanishSample =
    "el zorro rapido salta sobre el perro perezoso y luego corre a traves "
    "de los campos verdes buscando algo interesante para comer porque tiene "
    "hambre desde la manana temprano cuando el sol salia sobre las colinas "
    "y la gente del pueblo comenzaba su trabajo diario con mucha energia y "
    "entusiasmo por las cosas que iban a suceder durante el dia";

constexpr std::string_view kFrenchSample =
    "le renard rapide saute par dessus le chien paresseux et puis court a "
    "travers les champs verts en cherchant quelque chose d interessant a "
    "manger parce qu il a faim depuis le matin quand le soleil se levait "
    "sur les collines et que les gens du village commencaient leur travail "
    "quotidien avec beaucoup d energie et d enthousiasme pour les choses";

constexpr std::string_view kGermanSample =
    "der schnelle braune fuchs springt uber den faulen hund und lauft dann "
    "durch die grunen felder auf der suche nach etwas interessantem zu "
    "essen weil er seit dem fruhen morgen hungrig ist als die sonne uber "
    "den hugeln aufging und die menschen im dorf ihre tagliche arbeit mit "
    "grosser energie und begeisterung begannen fur die dinge die geschehen";

std::vector<std::string> EnglishFunctionWords() {
  return {"the", "and", "of",  "to",   "in",   "is",  "that", "for",
          "it",  "with", "as", "was",  "on",   "are", "this", "have",
          "from", "not", "but", "they", "what", "his", "her",  "you"};
}

std::vector<std::string> ItalianFunctionWords() {
  return {"il",  "la",  "di",  "che", "e",    "un",  "una", "per",
          "non", "sono", "con", "del", "della", "gli", "le",  "nel",
          "si",  "da",  "come", "anche", "piu", "questo", "questa", "ma"};
}

std::vector<std::string> SpanishFunctionWords() {
  return {"el",  "la",  "de",  "que",  "y",    "en",   "un",   "una",
          "los", "las", "por", "con",  "para", "del",  "se",   "no",
          "es",  "al",  "lo",  "como", "mas",  "pero", "sus",  "este"};
}

std::vector<std::string> FrenchFunctionWords() {
  return {"le",  "la",   "de",  "et",  "les",  "des", "un",  "une",
          "du",  "que",  "est", "pour", "dans", "qui", "sur", "pas",
          "au",  "avec", "ce",  "il",   "elle", "ne",  "se",  "mais"};
}

std::vector<std::string> GermanFunctionWords() {
  return {"der", "die",  "das", "und",  "ist",  "ein",  "eine", "nicht",
          "mit", "auf",  "fur", "von",  "dem",  "den",  "des",  "im",
          "zu",  "sich", "als", "auch", "nach", "bei",  "aus",  "wie"};
}

}  // namespace

TrigramCounts TrigramFrequencies(std::string_view text) {
  std::string normalized = "_";
  for (char c : text) {
    if (IsAsciiAlpha(c)) {
      normalized.push_back(
          c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
    } else if (normalized.back() != '_') {
      normalized.push_back('_');
    }
  }
  if (normalized.back() != '_') normalized.push_back('_');

  TrigramCounts freq;
  if (normalized.size() < 3) return freq;
  double total = 0.0;
  for (size_t i = 0; i + 3 <= normalized.size(); ++i) {
    // Pack the three bytes into the key; skip all-separator trigrams.
    if (normalized[i] == '_' && normalized[i + 1] == '_') continue;
    uint32_t key = (static_cast<uint32_t>(
                        static_cast<unsigned char>(normalized[i]))
                    << 16) |
                   (static_cast<uint32_t>(
                        static_cast<unsigned char>(normalized[i + 1]))
                    << 8) |
                   static_cast<uint32_t>(
                       static_cast<unsigned char>(normalized[i + 2]));
    freq[key] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (auto& [tri, f] : freq) f /= total;
  }
  return freq;
}

HashMapLanguageIdentifier::HashMapLanguageIdentifier() {
  const std::pair<Language, std::string_view> samples[] = {
      {Language::kEnglish, kEnglishSample},
      {Language::kItalian, kItalianSample},
      {Language::kSpanish, kSpanishSample},
      {Language::kFrench, kFrenchSample},
      {Language::kGerman, kGermanSample}};
  const std::vector<std::string> words[] = {
      EnglishFunctionWords(), ItalianFunctionWords(), SpanishFunctionWords(),
      FrenchFunctionWords(), GermanFunctionWords()};
  for (size_t l = 0; l < 5; ++l) {
    Profile p;
    p.lang = samples[l].first;
    p.trigram_freq = TrigramFrequencies(samples[l].second);
    double norm = 0.0;
    for (const auto& [tri, f] : p.trigram_freq) norm += f * f;
    p.trigram_norm = std::sqrt(norm);
    p.function_words.insert(words[l].begin(), words[l].end());
    profiles_.push_back(std::move(p));
  }
}

std::vector<std::pair<Language, double>> HashMapLanguageIdentifier::Scores(
    std::string_view raw_text) const {
  Tokenizer tokenizer;
  const std::vector<std::string> tokens = tokenizer.Tokenize(raw_text);
  const TrigramCounts text_trigrams =
      TrigramFrequencies(tokenizer.Sanitize(raw_text));
  std::vector<std::pair<Language, double>> out;
  for (const Profile& profile : profiles_) {
    double word_hits = 0.0;
    for (const auto& t : tokens) {
      if (profile.function_words.contains(t)) word_hits += 1.0;
    }
    const double word_score =
        tokens.empty() ? 0.0 : word_hits / static_cast<double>(tokens.size());
    double dot = 0.0;
    double norm_text = 0.0;
    for (const auto& [tri, f] : text_trigrams) {
      norm_text += f * f;
      auto it = profile.trigram_freq.find(tri);
      if (it != profile.trigram_freq.end()) dot += f * it->second;
    }
    double cosine = 0.0;
    if (norm_text > 0.0 && profile.trigram_norm > 0.0) {
      cosine = dot / (std::sqrt(norm_text) * profile.trigram_norm);
    }
    out.emplace_back(profile.lang, 0.65 * word_score + 0.35 * cosine);
  }
  return out;
}

Language HashMapLanguageIdentifier::Identify(std::string_view raw_text) const {
  Language best = Language::kUnknown;
  double best_score = 0.0;
  for (const auto& [lang, score] : Scores(raw_text)) {
    if (score > best_score) {
      best_score = score;
      best = lang;
    }
  }
  if (best_score < min_confidence_) return Language::kUnknown;
  return best;
}

}  // namespace crowdex::text::oracle
