#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/domain.h"
#include "entity/knowledge_base.h"
#include "synth/vocabulary.h"

namespace crowdbench::inputs {
namespace {

using crowdex::Domain;
using crowdex::kNumDomains;

/// Independent streams per input kind, so adding draws to one generator
/// never shifts another.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0xd1b54a32d192ed03ULL)).Next();
}

const crowdex::entity::KnowledgeBase& Kb() {
  static const crowdex::entity::KnowledgeBase kb =
      crowdex::entity::BuildDefaultKnowledgeBase();
  return kb;
}

/// Entity ids of each domain, in KB order.
const std::vector<std::vector<crowdex::entity::EntityId>>& DomainEntities() {
  static const auto per_domain = [] {
    std::vector<std::vector<crowdex::entity::EntityId>> out(kNumDomains);
    for (int d = 0; d < kNumDomains; ++d) {
      out[d] = Kb().EntitiesInDomain(static_cast<Domain>(d));
    }
    return out;
  }();
  return per_domain;
}

/// One need or document text about (domain, subtopic).
std::string TopicalText(Rng& rng, int domain, int subtopic, bool with_alias) {
  const Domain d = static_cast<Domain>(domain);
  std::vector<std::string> words;
  const size_t topical = 1 + rng.Below(3);
  for (size_t i = 0; i < topical; ++i) {
    words.push_back(rng.Pick(crowdex::synth::DomainWords(d)));
  }
  const size_t slice = 1 + rng.Below(2);
  for (size_t i = 0; i < slice; ++i) {
    words.push_back(
        rng.Pick(crowdex::synth::DomainSubtopicWords(d, subtopic)));
  }
  const auto& entities = DomainEntities()[domain];
  if (with_alias && !entities.empty()) {
    words.push_back(rng.Pick(Kb().at(rng.Pick(entities)).aliases));
  }
  const size_t glue = 2 + rng.Below(4);
  for (size_t i = 0; i < glue; ++i) {
    words.push_back(rng.Pick(crowdex::synth::EnglishGlueWords()));
  }
  // Seeded Fisher-Yates, so glue lands between content words.
  for (size_t i = words.size(); i > 1; --i) {
    std::swap(words[i - 1], words[rng.Below(i)]);
  }
  std::string text;
  for (const std::string& w : words) {
    if (!text.empty()) text += ' ';
    text += w;
  }
  return text;
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(v));
  PutU64(out, bits);
}

void PutStr(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

}  // namespace

crowdex::synth::WorldConfig WorldConfigFor(uint64_t seed, double scale) {
  crowdex::synth::WorldConfig config;
  config.seed = StreamSeed(seed, 1);
  config.scale = scale;
  return config;
}

std::vector<std::string> NeedPool(uint64_t seed, size_t size) {
  Rng rng(StreamSeed(seed, 2));
  std::set<std::string> seen;
  std::vector<std::string> pool;
  pool.reserve(size);
  while (pool.size() < size) {
    const int domain = static_cast<int>(rng.Below(kNumDomains));
    const int subtopic =
        static_cast<int>(rng.Below(crowdex::synth::kNumSubtopics));
    std::string text = TopicalText(rng, domain, subtopic, rng.Below(5) < 3);
    if (seen.insert(text).second) pool.push_back(std::move(text));
  }
  return pool;
}

std::vector<uint32_t> ZipfStream(uint64_t seed, size_t pool_size,
                                 size_t length, double exponent) {
  Rng rng(StreamSeed(seed, 3));
  // Popularity rank -> pool index.
  std::vector<uint32_t> by_rank(pool_size);
  for (size_t i = 0; i < pool_size; ++i) by_rank[i] = static_cast<uint32_t>(i);
  for (size_t i = pool_size; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  }
  std::vector<double> cdf(pool_size);
  double total = 0.0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  std::vector<uint32_t> stream(length);
  for (size_t i = 0; i < length; ++i) {
    const double u = rng.Unit() * total;
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    stream[i] = by_rank[std::min(r, pool_size - 1)];
  }
  return stream;
}

std::vector<std::string> NicheNeeds(uint64_t seed, size_t count) {
  Rng rng(StreamSeed(seed, 4));
  const std::vector<std::string>& filler = crowdex::synth::ChitchatWords();
  std::set<std::string> seen;
  std::vector<std::string> needs;
  needs.reserve(count);
  while (needs.size() < count) {
    const Domain d = static_cast<Domain>(rng.Below(kNumDomains));
    const auto& slice = crowdex::synth::DomainSubtopicWords(
        d, static_cast<int>(rng.Below(crowdex::synth::kNumSubtopics)));
    if (slice.size() < 2) continue;
    const size_t a = rng.Below(slice.size());
    size_t b = rng.Below(slice.size() - 1);
    if (b >= a) ++b;
    std::string text;
    for (const std::string* w : {&slice[a], &slice[b]}) {
      for (int rep = 0; rep < 3; ++rep) text += *w + " ";
    }
    const size_t fillers = 10 + rng.Below(4);
    for (size_t i = 0; i < fillers; ++i) {
      text += rng.Pick(filler);
      if (i + 1 < fillers) text += ' ';
    }
    if (seen.insert(text).second) needs.push_back(std::move(text));
  }
  return needs;
}

std::vector<uint32_t> UniformStream(uint64_t seed, size_t count,
                                    size_t length) {
  Rng rng(StreamSeed(seed, 5));
  std::vector<uint32_t> stream(length);
  for (uint32_t& v : stream) v = static_cast<uint32_t>(rng.Below(count));
  return stream;
}

MutationStream::MutationStream(uint64_t seed, int num_candidates)
    : rng_(StreamSeed(seed, 6)), num_candidates_(num_candidates) {}

RawDoc MutationStream::MakeDoc(uint64_t external_id) {
  RawDoc doc;
  doc.external_id = external_id;
  const int domain = static_cast<int>(rng_.Below(kNumDomains));
  doc.text = TopicalText(
      rng_, domain, static_cast<int>(rng_.Below(crowdex::synth::kNumSubtopics)),
      rng_.Below(2) == 0);
  const auto& entities = DomainEntities()[domain];
  const size_t n_entities = entities.empty() ? 0 : rng_.Below(3);
  for (size_t i = 0; i < n_entities; ++i) {
    doc.entities.push_back({rng_.Pick(entities),
                            static_cast<uint32_t>(1 + rng_.Below(3)),
                            0.25 * static_cast<double>(1 + rng_.Below(3))});
  }
  // Distinct entities per document, as the analyzer emits them.
  auto by_id = [](const auto& x, const auto& y) { return x.entity < y.entity; };
  auto same_id = [](const auto& x, const auto& y) { return x.entity == y.entity; };
  std::sort(doc.entities.begin(), doc.entities.end(), by_id);
  doc.entities.erase(
      std::unique(doc.entities.begin(), doc.entities.end(), same_id),
      doc.entities.end());
  const size_t n_assoc = 1 + rng_.Below(3);
  for (size_t i = 0; i < n_assoc; ++i) {
    doc.associations.push_back(
        {static_cast<int>(rng_.Below(static_cast<size_t>(num_candidates_))),
         static_cast<int>(rng_.Below(3))});
  }
  return doc;
}

RawBatch MutationStream::Next() {
  RawBatch batch;
  size_t deletions = rng_.Below(9);
  if (live_.size() > kLiveTarget) deletions += live_.size() - kLiveTarget;
  for (size_t i = 0; i < deletions && live_.size() > 10; ++i) {
    const size_t at = rng_.Below(live_.size());
    batch.deletions.push_back(live_[at]);
    live_[at] = live_.back();
    live_.pop_back();
  }
  const size_t upserts = 24 + rng_.Below(17);
  for (size_t i = 0; i < upserts; ++i) {
    if (rng_.Below(4) == 0 && !live_.empty()) {
      batch.upserts.push_back(MakeDoc(rng_.Pick(live_)));
    } else {
      batch.upserts.push_back(MakeDoc(++next_external_id_));
      live_.push_back(next_external_id_);
    }
  }
  return batch;
}

std::vector<std::string> TermCache::Terms(const std::string& text) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find(' ', begin);
    if (end == std::string::npos) end = text.size();
    const std::string word = text.substr(begin, end - begin);
    auto it = memo_.find(word);
    if (it == memo_.end()) {
      it = memo_.emplace(word, pipeline_->ProcessTerms(word)).first;
    }
    out.insert(out.end(), it->second.begin(), it->second.end());
    begin = end + 1;
  }
  return out;
}

crowdex::core::UpdateBatch ToUpdateBatch(const RawBatch& raw,
                                         TermCache* terms) {
  crowdex::core::UpdateBatch batch;
  batch.deletions = raw.deletions;
  batch.upserts.reserve(raw.upserts.size());
  for (const RawDoc& d : raw.upserts) {
    crowdex::core::UpsertDoc up;
    up.doc.external_id = d.external_id;
    up.doc.terms = terms->Terms(d.text);
    up.doc.entities = d.entities;
    up.associations = d.associations;
    batch.upserts.push_back(std::move(up));
  }
  return batch;
}

std::string Serialize(const crowdex::synth::WorldConfig& config) {
  std::string out;
  PutU64(&out, config.seed);
  PutU64(&out, static_cast<uint64_t>(config.num_candidates));
  PutF64(&out, config.scale);
  PutU64(&out, crowdex::synth::HashWorldConfig(config));
  return out;
}

std::string Serialize(const std::vector<std::string>& texts) {
  std::string out;
  PutU64(&out, texts.size());
  for (const std::string& t : texts) PutStr(&out, t);
  return out;
}

std::string Serialize(const std::vector<uint32_t>& stream) {
  std::string out;
  PutU64(&out, stream.size());
  for (uint32_t v : stream) PutU64(&out, v);
  return out;
}

std::string Serialize(const std::vector<RawBatch>& batches) {
  std::string out;
  PutU64(&out, batches.size());
  for (const RawBatch& b : batches) {
    PutU64(&out, b.deletions.size());
    for (uint64_t id : b.deletions) PutU64(&out, id);
    PutU64(&out, b.upserts.size());
    for (const RawDoc& d : b.upserts) {
      PutU64(&out, d.external_id);
      PutStr(&out, d.text);
      PutU64(&out, d.entities.size());
      for (const auto& e : d.entities) {
        PutU64(&out, e.entity);
        PutU64(&out, e.frequency);
        PutF64(&out, e.dscore);
      }
      PutU64(&out, d.associations.size());
      for (const auto& a : d.associations) {
        PutU64(&out, static_cast<uint64_t>(a.candidate));
        PutU64(&out, static_cast<uint64_t>(a.distance));
      }
    }
  }
  return out;
}

}  // namespace crowdbench::inputs
