// Per-class task isolation boundary: every class attempt on the thread
// backend runs inside capture_class_failure, which converts any escape
// into a typed TaskError instead of letting it unwind the worker loop.
// Every exception is a retryable failure of that one attempt: injected
// throws, corrupt-result detections and memory-budget trips alike. This
// is the single place where "a class task failed" is decided; the
// eclat-lint robust-catch rule requires every bare `catch (...)` in the
// tree to either rethrow or route through this helper, so failures
// cannot be silently swallowed anywhere else.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <utility>

namespace eclat::exec {

enum class TaskOutcome : std::uint8_t {
  kOk,      ///< the attempt produced a (validated) result
  kFailed,  ///< retryable failure — counts against the retry budget
};

struct TaskError {
  TaskOutcome outcome = TaskOutcome::kOk;
  std::string what;  ///< diagnostic of a failed attempt, empty otherwise
};

template <typename Fn>
TaskError capture_class_failure(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    return {};
  } catch (const std::exception& e) {
    return {TaskOutcome::kFailed, e.what()};
  }
  // eclat-lint: allow(robust-catch) this IS the fault-capture helper: an unknown exception becomes a typed, retry-accounted TaskError
  catch (...) {
    return {TaskOutcome::kFailed, "unknown exception"};
  }
}

}  // namespace eclat::exec
