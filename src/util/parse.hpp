// Strict parsing of user-supplied numbers (CLI flag values).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace specdag {

// Parses `text` as a whole non-negative decimal integer no larger than
// `max`. Returns nullopt for an empty token, a sign, whitespace, trailing
// characters or a value out of range, where std::strtoull would quietly
// read "x" as 0 and "-1" as 2^64 - 1.
inline std::optional<std::uint64_t> parse_uint(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

}  // namespace specdag
