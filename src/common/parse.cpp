#include "common/parse.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace eclat {

namespace {

std::invalid_argument plan_error(std::string_view dialect, std::size_t line,
                                 const std::string& why) {
  return std::invalid_argument(std::string(dialect) + " line " +
                               std::to_string(line) + ": " + why);
}

/// The first token of a plan line; empty for a blank or '#' line.
std::string line_head(const std::string& line) {
  std::string head;
  if (!line.empty() && line[0] != '#') std::istringstream(line) >> head;
  return head;
}

}  // namespace

void PlanField::reject() const {
  throw plan_error(dialect, line,
                   "bad value '" + std::string(value) + "' for key '" +
                       std::string(key) + "'");
}

std::uint64_t read_plan_text(
    const std::string& text, std::string_view dialect, std::string_view prefix,
    const std::function<void()>& on_event,
    const std::function<bool(const PlanField&)>& bind,
    std::size_t first_line) {
  const std::string seed_head = std::string(prefix) + "seed";
  const std::string event_head = std::string(prefix) + "event";
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = first_line - 1;
  std::optional<std::uint64_t> seed;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string head;
    tokens >> head;
    if (head == seed_head) {
      if (seed) {
        throw plan_error(dialect, line_no,
                         "a second '" + seed_head +
                             "' line; a plan has one");
      }
      std::string value;
      std::string extra;
      tokens >> value;
      seed = parse_whole<std::uint64_t>(value);
      if (!seed || tokens >> extra) {
        throw plan_error(dialect, line_no,
                         seed_head + " needs one unsigned value, got '" +
                             value + "'");
      }
      continue;
    }
    if (head != event_head) {
      throw plan_error(dialect, line_no,
                       "expected '" + seed_head + "' or '" + event_head +
                           "', got '" + head + "'");
    }
    on_event();
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        throw plan_error(dialect, line_no,
                         "expected key=value, got '" + token + "'");
      }
      const std::string_view whole = token;
      const PlanField field{whole.substr(0, eq), whole.substr(eq + 1),
                            dialect, line_no};
      if (!bind(field)) {
        throw plan_error(dialect, line_no,
                         "unknown key '" + std::string(field.key) + "'");
      }
    }
  }
  if (!seed) {
    throw std::invalid_argument(std::string(dialect) + ": missing '" +
                                seed_head + "' line");
  }
  return *seed;
}

std::vector<PlanPart> split_plan_text(
    const std::string& text, std::initializer_list<std::string_view> prefixes) {
  std::vector<PlanPart> parts;
  bool seeded = false;  // the last part has met its seed line
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string head = line_head(line);
    const auto prefix = std::find_if(
        prefixes.begin(), prefixes.end(),
        [&](std::string_view p) { return head == std::string(p) + "seed"; });
    const bool seed_line = prefix != prefixes.end();
    if (parts.empty() || (seed_line && seeded)) {
      parts.push_back({std::string(*prefixes.begin()), line_no, ""});
      seeded = false;
    }
    if (seed_line) {
      parts.back().prefix = *prefix;
      seeded = true;
    }
    parts.back().text += line;
    parts.back().text += '\n';
  }
  if (parts.empty()) parts.push_back({std::string(*prefixes.begin()), 1, ""});
  return parts;
}

}  // namespace eclat
