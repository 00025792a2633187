#include "common/flags.hpp"

#include <cstdlib>
#include <stdexcept>

namespace eclat {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const std::optional<std::int64_t> value =
          parse_whole<std::int64_t>(it->second)) {
    return *value;
  }
  throw std::invalid_argument("--" + name + "=" + it->second +
                              ": expected an integer");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + "=" + text +
                                ": expected a number");
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::string Flags::get_choice(const std::string& name,
                              std::span<const std::string_view> choices,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  for (const std::string_view choice : choices) {
    if (it->second == choice) return it->second;
  }
  std::string allowed;
  for (const std::string_view choice : choices) {
    if (!allowed.empty()) allowed += "|";
    allowed += choice;
  }
  throw std::invalid_argument("--" + name + "=" + it->second +
                              ": expected one of " + allowed);
}

}  // namespace eclat
