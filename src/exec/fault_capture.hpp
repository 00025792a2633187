// Per-class task isolation boundary: every class attempt on the thread
// backend runs inside capture_class_failure, which turns any escape into
// the attempt's diagnostic instead of letting it unwind the worker loop.
// Every exception is a retryable failure of that one attempt: injected
// throws, corrupt-result detections and memory-budget trips alike. This
// is the single place where "a class task failed" is decided; the
// eclat-lint robust-catch rule requires every bare `catch (...)` in the
// tree to either rethrow or route through this helper, so failures
// cannot be silently swallowed anywhere else.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace eclat::exec {

/// Run one class attempt: nothing when it produced a (validated) result,
/// else its diagnostic — a failure that counts against the retry budget.
template <typename Fn>
std::optional<std::string> capture_class_failure(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    return std::nullopt;
  } catch (const std::exception& e) {
    return e.what();
  }
  // eclat-lint: allow(robust-catch) this IS the fault-capture helper: an unknown exception becomes the attempt's retry-accounted diagnostic
  catch (...) {
    return "unknown exception";
  }
}

}  // namespace eclat::exec
