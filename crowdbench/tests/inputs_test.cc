// The benchmark's inputs are a pure function of the workload seed: the same
// seed gives byte-identical inputs, another seed different ones. Also checks
// that the memoized word-wise term analysis of the mutation stream equals
// analyzing each document's whole text.
//
//   ctest --test-dir .bench_build/crowdbench -R crowdbench_inputs_test
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "text/pipeline.h"

namespace {

using namespace crowdbench::inputs;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Every input a seed produces, rendered as bytes.
std::string AllInputs(uint64_t seed) {
  std::string bytes;
  bytes += Serialize(WorldConfigFor(seed, kServingScale));
  bytes += Serialize(WorldConfigFor(seed, kIngestScale));
  const std::vector<std::string> pool = NeedPool(seed, 4000);
  bytes += Serialize(pool);
  bytes += Serialize(ZipfStream(seed, pool.size(), 1 << 16, 0.9));
  const std::vector<std::string> niche = NicheNeeds(seed, 150);
  bytes += Serialize(niche);
  bytes += Serialize(UniformStream(seed, niche.size(), 1 << 16));
  MutationStream stream(seed, 40);
  std::vector<RawBatch> batches;
  for (int i = 0; i < 500; ++i) batches.push_back(stream.Next());
  bytes += Serialize(batches);
  return bytes;
}

}  // namespace

int main() {
  const std::string a = AllInputs(7);
  const std::string b = AllInputs(7);
  const std::string c = AllInputs(8);
  Expect(!a.empty(), "inputs are empty");
  Expect(a == b, "the same seed gave different inputs");
  Expect(a != c, "different seeds gave the same inputs");
  Expect(Serialize(NeedPool(7, 4000)) != Serialize(NeedPool(8, 4000)),
         "different seeds gave the same need pool");

  const std::vector<std::string> pool = NeedPool(7, 4000);
  Expect(pool.size() == 4000, "need pool has the wrong size");
  Expect(NicheNeeds(7, 150).size() == 150, "niche needs have the wrong size");

  // Word-wise memoized analysis == whole-text analysis, and the stream's
  // deletions only ever name live ids.
  crowdex::text::TextPipeline pipeline;
  TermCache cache(&pipeline);
  MutationStream stream(7, 40);
  std::vector<uint64_t> live;
  for (int i = 0; i < 2000; ++i) {
    const RawBatch batch = stream.Next();
    for (uint64_t id : batch.deletions) {
      auto it = std::find(live.begin(), live.end(), id);
      Expect(it != live.end(), "a deletion names a document that is not live");
      if (it != live.end()) live.erase(it);
    }
    for (const RawDoc& doc : batch.upserts) {
      if (i < 200) {
        Expect(cache.Terms(doc.text) == pipeline.ProcessTerms(doc.text),
               "memoized terms differ from whole-text analysis");
      }
      if (std::find(live.begin(), live.end(), doc.external_id) == live.end()) {
        live.push_back(doc.external_id);
      }
    }
  }
  Expect(live.size() <= MutationStream::kLiveTarget + 64,
         "the stream's live set grows past its target");

  if (failures == 0) std::printf("crowdbench_inputs_test: OK\n");
  return failures == 0 ? 0 : 1;
}
