// Seeded input generators of the crowdex benchmark. Every input a workload
// feeds the program — the world configuration, the `query_mix` need pool
// and its Zipf request stream, the `niche_sharded` needs, and the
// `ingest_live` mutation stream — is a pure function of the workload seed
// (and of the fixed vocabularies the library ships), so the same seed
// gives byte-identical inputs. `Serialize` renders inputs as bytes for the
// determinism test.
#ifndef CROWDBENCH_INPUTS_H_
#define CROWDBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/index_writer.h"
#include "text/pipeline.h"
#include "synth/world.h"

namespace crowdbench::inputs {

/// Corpus scales: `query_mix` and `niche_sharded` serve ≈100k nodes
/// (≈70k indexed English resources); `ingest_live` writes beside reads on
/// a smaller base so compactions stay frequent.
inline constexpr double kServingScale = 0.25;
inline constexpr double kIngestScale = 0.1;

/// The synthetic world of a workload: the library's default calibration
/// at `scale`, generated from `seed`.
crowdex::synth::WorldConfig WorldConfigFor(uint64_t seed, double scale);

/// `size` distinct free-text expertise needs, each built from one
/// domain's topical words, one of its subtopic slices, an optional entity
/// alias of that domain from the knowledge base, and English glue words.
std::vector<std::string> NeedPool(uint64_t seed, size_t size);

/// `length` indices into a pool of `pool_size` texts drawn from a Zipf law
/// with exponent `exponent`; which text gets which popularity rank is
/// itself seeded.
std::vector<uint32_t> ZipfStream(uint64_t seed, size_t pool_size,
                                 size_t length, double exponent);

/// `count` distinct selective needs: two rare words from one subtopic
/// slice, each repeated three times, amid high-frequency chit-chat filler.
std::vector<std::string> NicheNeeds(uint64_t seed, size_t count);

/// `length` indices drawn uniformly from [0, count).
std::vector<uint32_t> UniformStream(uint64_t seed, size_t count,
                                    size_t length);

/// One upserted document before analysis: raw text, recognized entities
/// and the candidates that reach it.
struct RawDoc {
  uint64_t external_id = 0;
  std::string text;
  std::vector<crowdex::index::DocEntity> entities;
  std::vector<crowdex::core::ExpertFinder::Association> associations;
};

struct RawBatch {
  std::vector<RawDoc> upserts;
  /// External ids retired by the batch (always live when it starts).
  std::vector<uint64_t> deletions;
};

/// splitmix64: a tiny generator whose output depends on nothing but the
/// seed (unlike the standard distributions, whose algorithms are
/// implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Below(v.size())];
  }

 private:
  uint64_t state_;
};

/// The `ingest_live` mutation stream, unbounded: every batch upserts 24–40
/// documents built from topical vocabulary (a quarter of them replace a
/// live document) and deletes up to eight earlier ones — more once the
/// stream's live documents exceed `kLiveTarget`, so the index stays the
/// same size however long the writer runs. Ids start at 9'000'001, clear
/// of the synthesized base corpus, so replaying any prefix into a fresh
/// writer is valid; two streams with the same seed yield the same batches.
class MutationStream {
 public:
  static constexpr size_t kLiveTarget = 3000;

  MutationStream(uint64_t seed, int num_candidates);
  RawBatch Next();

 private:
  RawDoc MakeDoc(uint64_t external_id);

  Rng rng_;
  int num_candidates_;
  std::vector<uint64_t> live_;
  uint64_t next_external_id_ = 9'000'000;
};

/// Runs document text through `pipeline.ProcessTerms` one word at a time,
/// memoized: the pipeline's tokenizer, stop-word filter and stemmer are all
/// per token, and the stream's words are space-separated vocabulary, so
/// the result equals analyzing the whole text at once.
class TermCache {
 public:
  explicit TermCache(const crowdex::text::TextPipeline* pipeline)
      : pipeline_(pipeline) {}
  std::vector<std::string> Terms(const std::string& text);

 private:
  const crowdex::text::TextPipeline* pipeline_;
  std::unordered_map<std::string, std::vector<std::string>> memo_;
};

/// The typed batch `IndexWriter::Apply` takes.
crowdex::core::UpdateBatch ToUpdateBatch(const RawBatch& raw,
                                         TermCache* terms);

/// Byte renderings for the determinism test.
std::string Serialize(const crowdex::synth::WorldConfig& config);
std::string Serialize(const std::vector<std::string>& texts);
std::string Serialize(const std::vector<uint32_t>& stream);
std::string Serialize(const std::vector<RawBatch>& batches);

}  // namespace crowdbench::inputs

#endif  // CROWDBENCH_INPUTS_H_
