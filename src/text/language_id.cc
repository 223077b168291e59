#include "text/language_id.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "text/tokenizer.h"

namespace crowdex::text {

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

// Very frequent function words per language, in `kLanguages` order.
constexpr size_t kWordsPerLanguage = 24;
using WordList = std::array<std::string_view, kWordsPerLanguage>;

constexpr WordList kEnglishWords = {
    "the", "and", "of",  "to",   "in",   "is",  "that", "for",
    "it",  "with", "as", "was",  "on",   "are", "this", "have",
    "from", "not", "but", "they", "what", "his", "her",  "you"};

constexpr WordList kItalianWords = {
    "il",  "la",  "di",  "che", "e",    "un",  "una", "per",
    "non", "sono", "con", "del", "della", "gli", "le",  "nel",
    "si",  "da",  "come", "anche", "piu", "questo", "questa", "ma"};

constexpr WordList kSpanishWords = {
    "el",  "la",  "de",  "que",  "y",    "en",   "un",   "una",
    "los", "las", "por", "con",  "para", "del",  "se",   "no",
    "es",  "al",  "lo",  "como", "mas",  "pero", "sus",  "este"};

constexpr WordList kFrenchWords = {
    "le",  "la",   "de",  "et",  "les",  "des", "un",  "une",
    "du",  "que",  "est", "pour", "dans", "qui", "sur", "pas",
    "au",  "avec", "ce",  "il",   "elle", "ne",  "se",  "mais"};

constexpr WordList kGermanWords = {
    "der", "die",  "das", "und",  "ist",  "ein",  "eine", "nicht",
    "mit", "auf",  "fur", "von",  "dem",  "den",  "des",  "im",
    "zu",  "sich", "als", "auch", "nach", "bei",  "aus",  "wie"};

struct LanguageData {
  Language lang;
  std::string_view sample;
  const WordList* words;
};

constexpr std::array<LanguageData, LanguageIdentifier::kNumLanguages>
    kLanguages = {{
        {Language::kEnglish, kEnglishSample, &kEnglishWords},
        {Language::kItalian, kItalianSample, &kItalianWords},
        {Language::kSpanish, kSpanishSample, &kSpanishWords},
        {Language::kFrench, kFrenchSample, &kFrenchWords},
        {Language::kGerman, kGermanSample, &kGermanWords},
    }};

// The scan counts tokens exactly as a default-configured `Tokenizer` emits
// them, including its pure-number drop.
constexpr TokenizerOptions kTokenizerDefaults{};
static_assert(kTokenizerDefaults.drop_pure_numbers);

// Trigram alphabet: code 0 is the '_' separator, 1..26 are 'a'..'z'.
constexpr uint32_t kAlphabet = 27;
constexpr size_t kTrigramSpace = kAlphabet * kAlphabet * kAlphabet;

// Words of up to 8 bytes pack one byte per character into a uint64 key.
constexpr size_t kMaxPackedWord = 8;

// Byte classes of the scan: letters map to their trigram code (1..26).
constexpr uint8_t kSeparator = 0;
constexpr uint8_t kDigit = kAlphabet;
constexpr uint8_t kApostrophe = kAlphabet + 1;

constexpr std::array<uint8_t, 256> BuildByteClasses() {
  std::array<uint8_t, 256> classes{};
  classes.fill(kSeparator);
  for (int c = 'a'; c <= 'z'; ++c) {
    classes[c] = static_cast<uint8_t>(c - 'a' + 1);
  }
  for (int c = 'A'; c <= 'Z'; ++c) {
    classes[c] = static_cast<uint8_t>(c - 'A' + 1);
  }
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit;
  classes['\''] = kApostrophe;
  return classes;
}
constexpr std::array<uint8_t, 256> kByteClass = BuildByteClasses();

uint64_t PackWord(std::string_view word) {
  uint64_t key = 0;
  for (char c : word) key = (key << 8) | static_cast<unsigned char>(c);
  return key;
}

// Multiplicative hash of a packed word; the middle bits of the product mix
// the word's last five characters.
size_t WordSlotHash(uint64_t key) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}

// One pass over sanitized `text` feeding both language-ID signals:
//  - `on_token(key)` for every token a default `Tokenizer` would emit, with
//    `key` the packed lowercased token (0 when longer than kMaxPackedWord);
//  - `on_trigram(code)` for every trigram of the normalized stream: letters
//    lowercased, each run of other bytes collapsed to one '_', the whole
//    padded with '_'. Trigrams whose first two characters are both '_' are
//    skipped (the collapsing means they cannot occur).
template <typename TokenFn, typename TrigramFn>
void ScanText(std::string_view text, TokenFn&& on_token,
              TrigramFn&& on_trigram) {
  uint64_t key = 0;
  size_t length = 0;
  bool has_letter = false;
  auto flush = [&] {
    if (length >= kTokenizerDefaults.min_token_length &&
        length <= kTokenizerDefaults.max_token_length && has_letter) {
      on_token(length <= kMaxPackedWord ? key : 0);
    }
    key = 0;
    length = 0;
    has_letter = false;
  };
  uint32_t prev2 = 0;  // The stream's last two codes; the leading '_' is
  uint32_t prev1 = 0;  // already in place.
  size_t stream_length = 1;
  auto push = [&](uint32_t code) {
    if (++stream_length >= 3 && (prev2 | prev1) != 0) {
      on_trigram((prev2 * kAlphabet + prev1) * kAlphabet + code);
    }
    prev2 = prev1;
    prev1 = code;
  };
  for (char c : text) {
    const uint8_t cls = kByteClass[static_cast<unsigned char>(c)];
    if (cls != kSeparator && cls < kAlphabet) {
      push(cls);
      ++length;
      has_letter = true;
      key = (key << 8) | static_cast<uint64_t>('a' + cls - 1);
      continue;
    }
    if (prev1 != 0) push(0);
    if (cls == kDigit) {
      ++length;
      key = (key << 8) | static_cast<unsigned char>(c);
    } else if (cls != kApostrophe) {
      // Apostrophes vanish inside words ("don't" -> "dont"); every other
      // non-alphanumeric byte ends the token.
      flush();
    }
  }
  flush();
  if (prev1 != 0) push(0);
}

// Per-thread trigram tally for the text-vector norm: one slot per dense
// trigram code holding (scan epoch << 32 | count), so a new scan never
// clears the table — a slot from an older epoch reads as count 0.
// Allocated once per thread.
struct TrigramTally {
  std::vector<uint64_t> slots = std::vector<uint64_t>(kTrigramSpace, 0);
  uint64_t epoch = 0;

  uint64_t NextEpoch() {
    if (++epoch > 0xFFFFFFFFu) {
      std::fill(slots.begin(), slots.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

TrigramTally& LocalTally() {
  thread_local TrigramTally tally;
  return tally;
}

}  // namespace

std::string_view LanguageCode(Language lang) {
  switch (lang) {
    case Language::kEnglish:
      return "en";
    case Language::kItalian:
      return "it";
    case Language::kSpanish:
      return "es";
    case Language::kFrench:
      return "fr";
    case Language::kGerman:
      return "de";
    case Language::kUnknown:
      return "??";
  }
  return "??";
}

LanguageIdentifier::LanguageIdentifier() {
  // Merged function-word table: word -> bitmask of its languages.
  std::vector<std::pair<uint64_t, uint8_t>> words;
  for (size_t l = 0; l < kNumLanguages; ++l) {
    languages_[l] = kLanguages[l].lang;
    for (std::string_view w : *kLanguages[l].words) {
      assert(w.size() <= kMaxPackedWord);
      const uint64_t key = PackWord(w);
      auto it = std::find_if(words.begin(), words.end(),
                             [key](const auto& e) { return e.first == key; });
      if (it == words.end()) it = words.insert(words.end(), {key, 0});
      it->second |= static_cast<uint8_t>(1u << l);
    }
  }
  size_t capacity = 1;
  while (capacity < 2 * words.size()) capacity <<= 1;
  word_slots_.assign(capacity, WordSlot{});
  for (const auto& [key, mask] : words) {
    size_t i = WordSlotHash(key) & (capacity - 1);
    while (word_slots_[i].key != 0) i = (i + 1) & (capacity - 1);
    word_slots_[i] = {key, mask};
  }

  // Profiles: normalized trigram frequencies of each sample, merged into
  // one row per trigram that any profile contains.
  std::vector<std::array<uint32_t, kNumLanguages>> counts(kTrigramSpace);
  std::array<double, kNumLanguages> totals{};
  for (size_t l = 0; l < kNumLanguages; ++l) {
    ScanText(kLanguages[l].sample, [](uint64_t) {}, [&](uint32_t code) {
      ++counts[code][l];
      totals[l] += 1.0;
    });
  }
  trigram_row_.assign(kTrigramSpace, 0);
  profile_rows_.assign(1, LanguageScores{});
  for (size_t code = 0; code < kTrigramSpace; ++code) {
    const auto& c = counts[code];
    if (std::all_of(c.begin(), c.end(), [](uint32_t n) { return n == 0; })) {
      continue;
    }
    LanguageScores row{};
    for (size_t l = 0; l < kNumLanguages; ++l) {
      row[l] = static_cast<double>(c[l]) / totals[l];
      profile_norm_[l] += row[l] * row[l];
    }
    trigram_row_[code] = static_cast<uint16_t>(profile_rows_.size());
    profile_rows_.push_back(row);
  }
  assert(profile_rows_.size() <= 0xFFFF);
  for (double& norm : profile_norm_) norm = std::sqrt(norm);
}

uint8_t LanguageIdentifier::FunctionWordLanguages(uint64_t packed_word) const {
  if (packed_word == 0) return 0;
  const size_t mask = word_slots_.size() - 1;
  for (size_t i = WordSlotHash(packed_word) & mask;; i = (i + 1) & mask) {
    const WordSlot& slot = word_slots_[i];
    if (slot.key == packed_word) return slot.languages;
    if (slot.key == 0) return 0;
  }
}

LanguageIdentifier::LanguageScores LanguageIdentifier::ScoreSanitized(
    std::string_view sanitized) const {
  TrigramTally& tally = LocalTally();
  const uint64_t epoch = tally.NextEpoch();
  size_t tokens = 0;
  std::array<uint32_t, kNumLanguages> word_hits{};
  uint64_t trigrams = 0;
  uint64_t sum_sq_counts = 0;  // Sum over distinct trigrams of count^2.
  LanguageScores dot{};        // Sum over occurrences of profile freq.
  ScanText(
      sanitized,
      [&](uint64_t key) {
        ++tokens;
        const uint8_t langs = FunctionWordLanguages(key);
        for (size_t l = 0; l < kNumLanguages; ++l) {
          word_hits[l] += (langs >> l) & 1u;
        }
      },
      [&](uint32_t code) {
        uint64_t& slot = tally.slots[code];
        const uint64_t count =
            (slot >> 32) == epoch ? (slot & 0xFFFFFFFFu) : 0;
        slot = (epoch << 32) | (count + 1);
        sum_sq_counts += 2 * count + 1;  // (c+1)^2 - c^2
        ++trigrams;
        const LanguageScores& row = profile_rows_[trigram_row_[code]];
        for (size_t l = 0; l < kNumLanguages; ++l) dot[l] += row[l];
      });

  // Text trigram frequencies are count / total, so the text-vector norm is
  // sqrt(sum count^2) / total and the dot product is dot / total.
  const double total = static_cast<double>(trigrams);
  const double norm_text =
      trigrams == 0 ? 0.0
                    : static_cast<double>(sum_sq_counts) / (total * total);
  LanguageScores scores{};
  for (size_t l = 0; l < kNumLanguages; ++l) {
    // Signal 1: fraction of tokens that are function words of language l.
    const double word_score =
        tokens == 0 ? 0.0
                    : static_cast<double>(word_hits[l]) /
                          static_cast<double>(tokens);
    // Signal 2: cosine similarity of the trigram frequency vectors.
    double cosine = 0.0;
    if (norm_text > 0.0 && profile_norm_[l] > 0.0) {
      cosine = (dot[l] / total) / (std::sqrt(norm_text) * profile_norm_[l]);
    }
    scores[l] = 0.65 * word_score + 0.35 * cosine;
  }
  return scores;
}

std::vector<std::pair<Language, double>> LanguageIdentifier::Scores(
    std::string_view raw_text) const {
  const LanguageScores scores = ScoreSanitized(Tokenizer().Sanitize(raw_text));
  std::vector<std::pair<Language, double>> out;
  out.reserve(kNumLanguages);
  for (size_t l = 0; l < kNumLanguages; ++l) {
    out.emplace_back(languages_[l], scores[l]);
  }
  return out;
}

Language LanguageIdentifier::Identify(std::string_view raw_text) const {
  return IdentifySanitized(Tokenizer().Sanitize(raw_text));
}

Language LanguageIdentifier::IdentifySanitized(
    std::string_view sanitized) const {
  const LanguageScores scores = ScoreSanitized(sanitized);
  Language best = Language::kUnknown;
  double best_score = 0.0;
  for (size_t l = 0; l < kNumLanguages; ++l) {
    if (scores[l] > best_score) {
      best_score = scores[l];
      best = languages_[l];
    }
  }
  if (best_score < min_confidence_) return Language::kUnknown;
  return best;
}

}  // namespace crowdex::text
