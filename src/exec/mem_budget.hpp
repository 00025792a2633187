// Per-class memory budget for the thread backend's mining recursion.
//
// ArenaBudget is the MiningGuard the thread backend passes to
// compute_frequent when --exec-mem-budget is set (otherwise it passes
// none, and mining takes the null-guard fast path). At every leading-atom
// checkpoint it charges what the class holds there: the logical bytes of
// the committed tid-sets on arena levels 0..depth
// (TidArena::live_bytes), never the capacity the worker's arena kept
// from earlier classes. A trip therefore depends on the class alone, and
// so does the metered peak. The ladder:
//
//   1. fail the class: over budget, the checkpoint throws
//      ClassMemoryExceeded, so only this class's attempt dies and the
//      class is retried like any failed attempt;
//   2. quarantine: the retry meets the same bytes at the same checkpoint,
//      so a class over budget fails every attempt and, past
//      --exec-max-retries, ends the run in the typed clean abort
//      (ExecClassQuarantined) rather than an OOM kill.
//
// Budgeted runs replay exactly. A huge budget meters the peak without
// ever tripping.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"

namespace eclat::exec {

/// Raised at a checkpoint when the class's live tid-sets exceed the
/// budget. Retryable, though a retry fails at the same checkpoint.
class ClassMemoryExceeded final : public std::runtime_error {
 public:
  ClassMemoryExceeded(std::size_t class_id, std::size_t bytes,
                      std::size_t budget)
      : std::runtime_error("exec: class " + std::to_string(class_id) +
                           " live tid-sets over memory budget (" +
                           std::to_string(bytes) + " > " +
                           std::to_string(budget) + " bytes)") {}
};

class ArenaBudget final : public MiningGuard {
 public:
  ArenaBudget(const TidArena& arena, std::size_t budget_bytes)
      : arena_(arena), budget_(budget_bytes) {}

  void set_class(std::size_t class_id) { class_id_ = class_id; }

  /// Meter the class's live bytes, and fail the class over budget.
  void checkpoint(std::size_t depth) override {
    const std::size_t bytes = arena_.live_bytes(depth);
    peak_bytes_ = std::max(peak_bytes_, bytes);
    if (bytes > budget_) {
      throw ClassMemoryExceeded(class_id_, bytes, budget_);
    }
  }

  std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  const TidArena& arena_;
  std::size_t budget_;
  std::size_t class_id_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace eclat::exec
