// Deterministic, seeded fault injection for the native thread backend —
// the exec-level mirror of mc/fault.hpp.
//
// An ExecFaultPlan is a list of ExecFaultEvents handed to thread_eclat
// with a run's options. The injection site is a *class attempt*:
// (class id, attempt index), where attempts of one class are numbered
// 0, 1, 2, ... (the first attempt is 0; every retry takes the next
// index). A class's attempts run back to back on the worker that took
// the class, so the fault a given attempt experiences is a pure function
// of (plan, class id, attempt index), independent of thread
// interleaving. No wall clock is consulted anywhere.
//
// Fault kinds:
//   - kThrow: the class task raises InjectedTaskThrow at task start.
//     Exercises exception capture + bounded retry.
//   - kCorrupt: the task mines normally, then its result slot is
//     deterministically mutated (seeded Rng draws) to violate the class
//     result contract. The backend validates every slot before commit,
//     so the corruption is detected, the partial is discarded, and the
//     attempt counts as a failure. Exercises the output-validation path.
//
// An event targets either an explicit class id or, for generated chaos
// schedules that cannot know the class count up front, a seeded hash
// selector: the event matches class c when a draw from
// Rng(seed ^ mix(c, event index)) lands on `sel` of `mod` buckets.
// `times` bounds how many leading attempts of a matching class fault;
// attempt `times` and later run clean, so a plan decides completion vs
// quarantine deterministically: a class faulted more than
// --exec-max-retries times quarantines, anything less completes with
// byte-identical output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "eclat/equivalence.hpp"

namespace eclat::exec {

enum class ExecFaultKind : std::uint8_t { kNone, kThrow, kCorrupt };

const char* to_string(ExecFaultKind kind);

inline constexpr std::size_t kAnyClass = static_cast<std::size_t>(-1);

struct ExecFaultEvent {
  ExecFaultKind kind = ExecFaultKind::kThrow;

  /// Explicit target class, or kAnyClass to select by seeded hash.
  std::size_t class_id = kAnyClass;

  /// Hash selector (class_id == kAnyClass only): the event matches class
  /// c when Rng(seed ^ mix(c, event index)).below(mod) == sel. mod >= 1,
  /// sel < mod (validate_exec_plan enforces both).
  std::uint64_t mod = 0;
  std::uint64_t sel = 0;

  /// How many leading attempts of a matching class fault (>= 1). The
  /// attempt numbered `times` runs clean.
  std::uint32_t times = 1;
};

/// A reproducible exec failure schedule: seed + events. Value type;
/// attach via ThreadBackendOptions::faults.
struct ExecFaultPlan {
  std::uint64_t seed = 0x5eed;
  std::vector<ExecFaultEvent> events;

  bool empty() const { return events.empty(); }

  static ExecFaultEvent throw_on(std::size_t class_id,
                                 std::uint32_t times = 1);
  static ExecFaultEvent corrupt_on(std::size_t class_id,
                                   std::uint32_t times = 1);
  /// Hash-selected event: matches ~1/mod of the classes.
  static ExecFaultEvent hashed(ExecFaultKind kind, std::uint64_t mod,
                               std::uint64_t sel, std::uint32_t times = 1);
};

/// Construction-time sanity check (also run by ExecFaultInjector): throws
/// std::invalid_argument naming the offending event for a kNone kind,
/// times == 0, or a hash selector with mod == 0 or sel >= mod.
void validate_exec_plan(const ExecFaultPlan& plan);

/// Line-based text form ("exec-seed ..." then one "exec-event ..." line
/// per event) so a failing schedule found by the chaos soak leg can be
/// attached as an artifact and replayed verbatim. exec_plan_from_text is
/// the "exec-" dialect of the shared plan reader (common/parse.hpp): it
/// throws std::invalid_argument naming the offending line and key, and
/// every number must be the whole unsigned value, in range for its field.
/// Diagnostics number the text's lines from `first_line` (a PlanPart of a
/// plan file starts there).
std::string exec_plan_to_text(const ExecFaultPlan& plan);
ExecFaultPlan exec_plan_from_text(const std::string& text,
                                  std::size_t first_line = 1);

/// Raised at task start when a kThrow event fires.
class InjectedTaskThrow final : public std::runtime_error {
 public:
  InjectedTaskThrow(std::size_t class_id, std::uint32_t attempt);
};

/// Raised by validate_class_result when a mined class slot violates the
/// structural contract (injected corruption, or a real bug).
class ClassResultCorrupt final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The clean typed abort of a threads-backend run: a class exceeded its
/// retry budget. Thrown by thread_eclat after the workers joined
/// (every other class ran to its own conclusion), naming the lowest
/// quarantined class id — which makes the diagnostic, like the outcome,
/// a pure function of the plan. failures() and retries() are the run's
/// totals, the counters a completed run reports.
class ExecClassQuarantined final : public std::runtime_error {
 public:
  ExecClassQuarantined(std::size_t class_id, std::uint32_t attempts,
                       const std::string& last_error, std::uint64_t failures,
                       std::uint64_t retries);
  std::size_t class_id() const { return class_id_; }
  std::uint32_t attempts() const { return attempts_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t retries() const { return retries_; }

 private:
  std::size_t class_id_;
  std::uint32_t attempts_;
  std::uint64_t failures_;
  std::uint64_t retries_;
};

/// Per-run view of an ExecFaultPlan. Pure and shared: fault_for and
/// corrupt_result hold no trigger state (the attempt index the backend
/// passes in *is* the trigger), so concurrent probes from worker threads
/// need no synchronization and replays are exact by construction.
class ExecFaultInjector {
 public:
  explicit ExecFaultInjector(const ExecFaultPlan& plan);

  /// The fault injected into `attempt` of `class_id`; kNone when clean.
  ExecFaultKind fault_for(std::size_t class_id, std::uint32_t attempt) const;

  /// Deterministically mutate a mined class result so that
  /// validate_class_result rejects it (seeded by plan seed, class id and
  /// attempt — a replay corrupts the identical byte).
  void corrupt_result(std::size_t class_id, std::uint32_t attempt,
                      Count minsup, ItemsetStore& result) const;

  bool empty() const { return plan_.empty(); }

 private:
  bool matches(const ExecFaultEvent& event, std::size_t event_index,
               std::size_t class_id) const;

  ExecFaultPlan plan_;
};

/// Structural contract every committed class slot must satisfy — the
/// isolation layer runs this on *every* mined result (honest results
/// pass by construction of the recursion): each itemset has >= 3 items,
/// starts with the class prefix, is strictly ascending, draws its tail
/// from the class members, and meets minsup. Throws ClassResultCorrupt
/// naming the class and the first offending itemset.
void validate_class_result(const EquivalenceClass& eq_class, Count minsup,
                           const ItemsetStore& result);

}  // namespace eclat::exec
