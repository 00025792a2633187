// Strict number parsing for the line-based text formats (the two fault
// plan grammars). A value is the whole token or nothing: std::from_chars
// takes no whitespace and no '+', takes '-' only for signed and floating
// types, and reports a value outside the target type's range, so "-1",
// "2x" and "4294967297" (as a std::uint32_t) all fail.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace eclat {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace eclat
