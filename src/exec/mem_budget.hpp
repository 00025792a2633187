// Per-worker arena memory budget with graceful degradation.
//
// ArenaBudget is the MiningGuard the thread backend passes to
// compute_frequent when --exec-mem-budget is set (otherwise it passes
// none, and mining takes the null-guard fast path). It is checked at
// class entry and every leading-atom boundary, where no scratch
// reference into the arena is outstanding. The degradation ladder, in
// order:
//
//   1. relieve: dead slots (past each level's `used` cursor) are
//      released outright; live tid-sets stay as they are;
//   2. fail the class: still over budget after relief, the checkpoint
//      throws ClassMemoryExceeded, so only this class's attempt dies.
//      The worker drops its arena caches (the backend calls
//      TidArena::clear() on every failure) and the class is retried —
//      possibly on another worker — against a fresh arena;
//   3. quarantine: a class that exceeds the budget more than
//      --exec-max-retries times can genuinely not be mined within it,
//      and the run ends in the typed clean abort (ExecClassQuarantined)
//      rather than an OOM kill.
//
// A huge budget meters peak usage without ever tripping.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"

namespace eclat::exec {

/// Raised at a checkpoint when the arena stays over budget after the
/// relief pass. Retryable: the class is re-enqueued against a cleared
/// arena.
class ClassMemoryExceeded final : public std::runtime_error {
 public:
  ClassMemoryExceeded(std::size_t class_id, std::size_t bytes,
                      std::size_t budget)
      : std::runtime_error("exec: class " + std::to_string(class_id) +
                           " arena over memory budget (" +
                           std::to_string(bytes) + " > " +
                           std::to_string(budget) + " bytes)") {}
};

class ArenaBudget final : public MiningGuard {
 public:
  ArenaBudget(TidArena& arena, std::size_t budget_bytes)
      : arena_(arena), budget_(budget_bytes) {}

  void set_class(std::size_t class_id) { class_id_ = class_id; }

  /// Meter, relieve, or fail the class.
  void checkpoint() override {
    std::size_t bytes = arena_.memory_bytes();
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
    if (bytes <= budget_) return;
    arena_.relieve_memory();
    bytes = arena_.memory_bytes();
    if (bytes > budget_) {
      throw ClassMemoryExceeded(class_id_, bytes, budget_);
    }
  }

  std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  TidArena& arena_;
  std::size_t budget_;
  std::size_t class_id_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace eclat::exec
