// Seeded byte-soup generators shared by the robustness sweeps
// (fuzz_robustness_test) and the language-ID differential test
// (analysis_golden_test), so the differential test replays exactly the
// inputs the sweeps feed the pipeline.

#ifndef CROWDEX_TESTS_TEXT_FUZZ_INPUTS_H_
#define CROWDEX_TESTS_TEXT_FUZZ_INPUTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace crowdex::fuzz {

/// Seeds of the `Seeds/FuzzRobustness.*` instantiations.
inline constexpr std::array<uint64_t, 5> kSeeds = {101, 202, 303, 404, 505};

/// Up to `max_len` arbitrary bytes.
inline std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.NextBelow(max_len + 1);
  std::string s(len, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextBelow(256));
  }
  return s;
}

/// Up to `max_len` bytes of letters, digits and the punctuation the
/// sanitizer treats specially (@ # & ; ' : / and whitespace).
inline std::string RandomAsciiSoup(Rng& rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz  @#&;.!?'\"://-_0123456789\n\t";
  size_t len = rng.NextBelow(max_len + 1);
  std::string s(len, '\0');
  for (char& c : s) {
    c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return s;
}

/// Every input the four `FuzzRobustness` sweeps draw for `seed`, in the
/// order each sweep draws them (each sweep starts from a fresh `Rng(seed)`).
inline std::vector<std::string> AllSweepInputs(uint64_t seed) {
  std::vector<std::string> inputs;
  {
    Rng rng(seed);  // TokenizerInvariantsOnRandomBytes
    for (int i = 0; i < 200; ++i) {
      inputs.push_back(rng.NextBool(0.5) ? RandomBytes(rng, 300)
                                         : RandomAsciiSoup(rng, 300));
    }
  }
  {
    Rng rng(seed);  // PipelineNeverCrashesAndStemsAreTokens
    for (int i = 0; i < 100; ++i) inputs.push_back(RandomAsciiSoup(rng, 500));
  }
  {
    Rng rng(seed);  // LanguageIdentifierTotalOnRandomBytes
    for (int i = 0; i < 100; ++i) inputs.push_back(RandomBytes(rng, 400));
  }
  {
    Rng rng(seed);  // AnnotatorInvariantsOnRandomTokens
    for (int i = 0; i < 100; ++i) inputs.push_back(RandomAsciiSoup(rng, 400));
  }
  return inputs;
}

}  // namespace crowdex::fuzz

#endif  // CROWDEX_TESTS_TEXT_FUZZ_INPUTS_H_
