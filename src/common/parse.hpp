// Strict parsing for the line-based text formats: whole-token numbers,
// and the one reader of the fault-plan text form.
//
// parse_whole: a value is the whole token or nothing. std::from_chars
// takes no whitespace and no '+', takes '-' only for signed and floating
// types, and reports a value outside the target type's range, so "-1",
// "2x" and "4294967297" (as a std::uint32_t) all fail.
//
// read_plan_text: the grammar both fault-plan dialects share, the
// simulator's compound plans (mc::FaultPlan, chaos::plan_from_text) and
// the thread backend's (exec::exec_plan_from_text). The dialects differ
// only in a line-head prefix ("" and "exec-") and in their event keys:
//
//   # comment                  blank and '#' lines are skipped
//   <prefix>seed N             N a whole u64; exactly one seed line
//   <prefix>event k=v k=v ...  one event per line
//
// A dialect binds each key to its event field through PlanField; the
// reader owns the line loop, the seed line, the key=value split and
// every diagnostic, which names the dialect, the line and the key.
//
// split_plan_text: a plan file may hold several plans, of either dialect
// (chaos --fail-file appends every violating plan to one file). It is cut
// at its seed lines, and each part is named by its seed line's prefix.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace eclat {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// One key=value token of a plan's event line, as a dialect's binder sees
/// it. Every setter throws std::invalid_argument naming the dialect, the
/// line and the key when the value does not fit the field.
struct PlanField {
  std::string_view key;
  std::string_view value;
  std::string_view dialect;
  std::size_t line = 0;

  /// The whole value, or one element `text` of a list value, as a number
  /// of the field's own type, whose range bounds it: "times=-1" is no
  /// u32, and "processor=-1" cannot spell a sentinel.
  template <typename T>
  void number(T& field) const {
    number(value, field);
  }
  template <typename T>
  void number(std::string_view text, T& field) const {
    const std::optional<T> parsed = parse_whole<T>(text);
    if (!parsed) reject();
    field = *parsed;
  }

  /// The one of `choices` whose to_string spelling is the value.
  template <typename Enum>
  void name(Enum& field, std::initializer_list<Enum> choices) const {
    for (const Enum choice : choices) {
      if (value == to_string(choice)) {
        field = choice;
        return;
      }
    }
    reject();
  }

  /// Throws "<dialect> line N: bad value 'V' for key 'K'".
  [[noreturn]] void reject() const;
};

/// Read a plan in the dialect whose line heads carry `prefix`, named
/// `dialect` in diagnostics. Returns the seed of its one seed line.
/// Each event line calls `on_event`, then `bind` once per token in line
/// order; `bind` returns false for a key the dialect does not know.
/// Throws std::invalid_argument naming the offending line (a second seed
/// line among them), or the missing seed line. Diagnostics number the
/// text's lines from `first_line`, the line of a plan file it starts at
/// (PlanPart::first_line).
std::uint64_t read_plan_text(const std::string& text,
                             std::string_view dialect,
                             std::string_view prefix,
                             const std::function<void()>& on_event,
                             const std::function<bool(const PlanField&)>& bind,
                             std::size_t first_line = 1);

/// One plan of a plan file, as split_plan_text cuts it.
struct PlanPart {
  std::string prefix;          ///< its seed line's prefix, i.e. its dialect
  std::size_t first_line = 1;  ///< the file's line its text starts at
  std::string text;            ///< its lines
};

/// Cut `text` at the lines headed "<p>seed" for any p in `prefixes`: each
/// plan runs from its seed line to the line before the next one, and the
/// lines before the first seed line belong to the first plan. A text with
/// no seed line is one part under prefixes[0], which read_plan_text
/// rejects for its missing seed line.
std::vector<PlanPart> split_plan_text(
    const std::string& text, std::initializer_list<std::string_view> prefixes);

}  // namespace eclat
