// In-memory span recorder for the traced replica run of bench_e2e.
//
// Spans are recorded from the benchmark's own file, around its calls into
// each library layer; nothing inside the library is instrumented. They are
// kept in memory while the replica runs and written out afterwards as
// Chrome trace-event JSON (open it at https://ui.perfetto.dev or in
// chrome://tracing).
//
// A span's self time is its duration minus the part of its interval that
// its direct children cover, so the self times of one tree sum exactly to
// its root's duration — the accounting the per-layer metrics rest on.
// check_span_tree() verifies that, and that no child outlives its parent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace eclat::bench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;  ///< index of the enclosing span

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded recorder: a span opened while another is open becomes
/// its child.
class Tracer {
 public:
  void open(std::string name) {
    const std::int64_t parent =
        stack_.empty() ? kNoParent : static_cast<std::int64_t>(stack_.back());
    spans_.push_back(Span{std::move(name), wall_ns(), 0, parent});
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost open span; returns its index.
  std::size_t close() {
    const std::size_t id = stack_.back();
    stack_.pop_back();
    spans_[id].end_ns = wall_ns();
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name) : tracer_(tracer) {
    tracer_.open(std::move(name));
  }
  ~ScopedSpan() { tracer_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
inline std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

/// Empty when the span list is a well-formed forest: every span closed and
/// contained in its parent, and the self times of each tree summing to its
/// root's duration. Otherwise a description of the first violation.
inline std::string check_span_tree(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::int64_t> subtree_self(spans.size(), 0);
  for (std::size_t i = spans.size(); i-- > 0;) {
    const Span& span = spans[i];
    if (span.end_ns < span.start_ns) {
      return "span '" + span.name + "' ends before it starts";
    }
    subtree_self[i] += self[i];
    if (span.parent == kNoParent) continue;
    const std::size_t parent = static_cast<std::size_t>(span.parent);
    if (parent >= i) return "span '" + span.name + "' precedes its parent";
    if (span.start_ns < spans[parent].start_ns ||
        span.end_ns > spans[parent].end_ns) {
      return "span '" + span.name + "' outlives its parent '" +
             spans[parent].name + "'";
    }
    subtree_self[parent] += subtree_self[i];
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == kNoParent &&
        subtree_self[i] != spans[i].duration_ns()) {
      return "self times under root '" + spans[i].name + "' sum to " +
             std::to_string(subtree_self[i]) + " ns, not its " +
             std::to_string(spans[i].duration_ns()) + " ns";
    }
  }
  return {};
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds from the first span). Span names must not need JSON
/// escaping; the benchmark uses dotted identifiers only. Returns false when
/// the file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               std::span<const Span> spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, "
                 "\"self_us\": %.3f}}%s\n",
                 span.name.c_str(),
                 span.name.substr(0, span.name.find('.')).c_str(),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.duration_ns()) * 1e-3, i,
                 static_cast<long long>(span.parent),
                 static_cast<double>(self[i]) * 1e-3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace eclat::bench
