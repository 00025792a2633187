// Minimal command-line flag parsing for the example and benchmark binaries.
//
// Syntax: "--name=value" or "--name value"; bare "--name" sets a boolean.
// Unrecognized arguments are kept as positional arguments.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eclat {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Non-negative integer (counts, retry budgets). Throws
  /// std::invalid_argument on a negative or non-numeric value rather than
  /// silently wrapping it into a huge count.
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;

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
