#ifndef CROWDEX_COMMON_STRING_UTIL_H_
#define CROWDEX_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace crowdex {

/// Returns a copy of `s` with ASCII letters lowered. Non-ASCII bytes are
/// passed through unchanged.
std::string AsciiToLower(std::string_view s);

/// Returns true iff `c` is an ASCII letter. Inline: the tokenizer, the
/// language identifier and the annotator call it once per character.
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// Returns true iff `c` is an ASCII digit.
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

/// Splits `s` on any of the characters in `delims`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s,
                                     std::string_view delims);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Returns `s` with leading and trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view s);

/// Returns true iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Returns true iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats `value` with `digits` digits after the decimal point (fixed).
std::string FormatDouble(double value, int digits);

/// Transparent (heterogeneous-lookup) hash for string-keyed containers:
/// `std::unordered_map<std::string, V, TransparentStringHash,
/// std::equal_to<>>` accepts `std::string_view` lookups without
/// materializing a temporary `std::string` — the allocation-free path for
/// hot lookups like URL resolution.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace crowdex

#endif  // CROWDEX_COMMON_STRING_UTIL_H_
