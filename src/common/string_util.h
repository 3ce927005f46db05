// forklift/common: small string helpers used across the library.
#ifndef SRC_COMMON_STRING_UTIL_H_
#define SRC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace forklift {

// Splits on any occurrence of `sep`. Empty fields are preserved
// ("a,,b" → {"a","","b"}); an empty input yields {""}.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on runs of whitespace; no empty fields; empty/blank input yields {}.
std::vector<std::string> SplitWhitespace(std::string_view s);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// Parses all of `text` as a T: integers in `base`, floating point in plain
// or scientific notation. False (leaving *out alone) on an empty value,
// trailing characters, a sign an unsigned T cannot hold, or overflow —
// unlike strtoul, "x" is not 0 and "-1" is not ULONG_MAX.
template <typename T>
bool ParseNumber(std::string_view text, T* out, int base = 10) {
  const char* end = text.data() + text.size();
  T value{};
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), end, value);
  } else {
    r = std::from_chars(text.data(), end, value, base);
  }
  if (r.ec != std::errc() || r.ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Human-readable byte size: "4.0KiB", "2.5MiB", "3GiB".
std::string HumanBytes(uint64_t bytes);

// Human-readable nanoseconds: "840ns", "1.24us", "3.5ms", "2.1s".
std::string HumanNanos(double nanos);

}  // namespace forklift

#endif  // SRC_COMMON_STRING_UTIL_H_
