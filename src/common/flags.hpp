// Minimal command-line flag parsing for the example and benchmark binaries.
//
// Syntax: "--name=value" or "--name value"; bare "--name" sets a boolean.
// Unrecognized arguments are kept as positional arguments.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse.hpp"

namespace eclat {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Signed integer, read whole (parse_whole): no sign but '-', no
  /// trailing text, and in range, or std::invalid_argument.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Non-negative integer of width T (counts, retry budgets), read whole
  /// (parse_whole). Throws std::invalid_argument on a sign, trailing text
  /// or a value past T's range rather than wrapping it into another
  /// count; the fallback does not deduce T.
  template <typename T = std::uint64_t>
  T get_uint(const std::string& name, std::type_identity_t<T> fallback) const {
    static_assert(std::is_unsigned_v<T>);
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (const std::optional<T> value = parse_whole<T>(it->second)) {
      return *value;
    }
    throw std::invalid_argument(
        "--" + name + "=" + it->second +
        ": expected a non-negative integer up to " +
        std::to_string(std::numeric_limits<T>::max()));
  }

  /// Value restricted to an enumerated set (e.g. --kernel=merge|auto).
  /// Returns `fallback` when absent; throws std::invalid_argument naming
  /// the flag and the allowed values when present but not in `choices`.
  std::string get_choice(const std::string& name,
                         std::span<const std::string_view> choices,
                         const std::string& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace eclat
